#include "engine/dataset_catalog.h"

#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace antimr {
namespace engine {

DatasetCatalog::Dataset* DatasetCatalog::Find(const std::string& name) {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    // Always-on check (not assert): a planner bug reaching here in an
    // NDEBUG build would otherwise dereference end() — silent UB.
    ANTIMR_LOG(kError) << "dataset '" << name
                       << "' is not registered in the catalog";
    std::abort();
  }
  return &it->second;
}

void DatasetCatalog::RegisterExternal(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Dataset& ds = datasets_[name];
  ds.info.name = name;
  ds.info.external = true;
}

void DatasetCatalog::RegisterIntermediate(const std::string& name,
                                          int producer_stage,
                                          int num_partitions, bool retained) {
  std::lock_guard<std::mutex> lock(mu_);
  Dataset& ds = datasets_[name];
  ds.info.name = name;
  ds.info.external = false;
  ds.info.producer_stage = producer_stage;
  ds.info.num_partitions = num_partitions;
  ds.info.retained = retained;
  ds.partitions.resize(static_cast<size_t>(num_partitions));
}

void DatasetCatalog::SetPendingConsumers(const std::string& name, int count) {
  std::lock_guard<std::mutex> lock(mu_);
  Find(name)->pending_consumers = count;
}

void DatasetCatalog::Publish(const std::string& name, int partition,
                             std::vector<KV> records) {
  std::lock_guard<std::mutex> lock(mu_);
  Dataset* ds = Find(name);
  // Re-publish from a retried reduce replaces the slot; back out the old
  // slot's contribution first so bytes/records never double-count.
  auto& slot = ds->partitions[static_cast<size_t>(partition)];
  if (slot != nullptr) {
    for (const KV& kv : *slot) {
      ds->info.bytes -= kv.key.size() + kv.value.size();
    }
    ds->info.records -= slot->size();
  }
  for (const KV& kv : records) {
    ds->info.bytes += kv.key.size() + kv.value.size();
  }
  ds->info.records += records.size();
  slot = std::make_shared<std::vector<KV>>(std::move(records));
}

InputSplit DatasetCatalog::PartitionSplit(const std::string& name,
                                          int partition) {
  InputSplit split;
  split.open = [this, name, partition]() -> std::unique_ptr<RecordSource> {
    std::shared_ptr<std::vector<KV>> part;
    {
      std::lock_guard<std::mutex> lock(mu_);
      part = Find(name)->partitions[static_cast<size_t>(partition)];
    }
    // A reduce task that produced no records still publishes; a null slot
    // means the producer was skipped after a failure — read as empty.
    if (part == nullptr) part = std::make_shared<std::vector<KV>>();
    return std::make_unique<VectorSource>(std::move(part));
  };
  return split;
}

void DatasetCatalog::ConsumerDone(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Dataset* ds = Find(name);
  if (--ds->pending_consumers > 0 || ds->info.external) return;
  if (!ds->info.retained) {
    // Last consumer finished: reclaim the materialized partitions now.
    for (auto& part : ds->partitions) part.reset();
    ds->info.released = true;
    ANTIMR_TRACE_INSTANT("engine", "dataset_gc",
                         obs::TraceArgs()
                             .Add("dataset", name)
                             .Add("bytes", ds->info.bytes));
  }
}

void DatasetCatalog::ReleaseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, ds] : datasets_) {
    if (ds.info.external || ds.info.retained || ds.info.released) continue;
    for (auto& part : ds.partitions) part.reset();
    ds.pending_consumers = 0;
    ds.info.released = true;
    ANTIMR_TRACE_INSTANT("engine", "dataset_gc",
                         obs::TraceArgs()
                             .Add("dataset", name)
                             .Add("bytes", ds.info.bytes)
                             .Add("forced", 1));
  }
}

std::vector<std::vector<KV>> DatasetCatalog::TakePartitions(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Dataset* ds = Find(name);
  std::vector<std::vector<KV>> out;
  out.reserve(ds->partitions.size());
  for (auto& part : ds->partitions) {
    if (part == nullptr) {
      out.emplace_back();
    } else if (part.use_count() == 1) {
      out.push_back(std::move(*part));
    } else {
      out.push_back(*part);  // a reader still holds it: copy
    }
    part.reset();
  }
  return out;
}

std::vector<DatasetInfo> DatasetCatalog::Describe() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DatasetInfo> out;
  out.reserve(datasets_.size());
  for (const auto& [name, ds] : datasets_) out.push_back(ds.info);
  return out;
}

}  // namespace engine
}  // namespace antimr
