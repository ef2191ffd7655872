#include "mr/in_mapper_combining.h"

#include <algorithm>

#include "mr/reduce_task.h"

namespace antimr {

class InMapperCombiningMapper::BufferingContext : public MapContext {
 public:
  explicit BufferingContext(InMapperCombiningMapper* owner) : owner_(owner) {}

  void Emit(const Slice& key, const Slice& value) override {
    owner_->Add(key, value);
  }

 private:
  InMapperCombiningMapper* owner_;
};

InMapperCombiningMapper::InMapperCombiningMapper(
    MapperFactory base_factory, ReducerFactory combiner_factory,
    size_t memory_budget)
    : base_factory_(std::move(base_factory)),
      combiner_factory_(std::move(combiner_factory)),
      memory_budget_(memory_budget) {}

void InMapperCombiningMapper::Setup(const TaskInfo& info, MapContext* ctx) {
  (void)ctx;
  base_ = base_factory_();
  combiner_ = combiner_factory_();
  buffer_ctx_ = std::make_unique<BufferingContext>(this);
  base_->Setup(info, buffer_ctx_.get());
}

void InMapperCombiningMapper::Add(const Slice& key, const Slice& value) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    it = table_.emplace(arena_.Intern(key), std::vector<Slice>()).first;
    memory_bytes_ += key.size();
  }
  it->second.push_back(arena_.Intern(value));
  memory_bytes_ += value.size();
}

void InMapperCombiningMapper::Map(const Slice& key, const Slice& value,
                                  MapContext* ctx) {
  base_->Map(key, value, buffer_ctx_.get());
  if (memory_bytes_ > memory_budget_) Flush(ctx);
}

void InMapperCombiningMapper::Flush(MapContext* ctx) {
  // Deterministic flush order keeps runs reproducible.
  std::vector<Slice> keys;
  keys.reserve(table_.size());
  for (const auto& [key, values] : table_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  OutputSink forward([ctx](const Slice& key, const Slice& value) {
    ctx->Emit(key, value);
    return Status::OK();
  });
  for (const Slice& key : keys) {
    SliceVectorIterator it(&table_[key]);
    combiner_->Reduce(key, &it, &forward);
  }
  table_.clear();
  arena_.Clear();
  memory_bytes_ = 0;
}

void InMapperCombiningMapper::Cleanup(MapContext* ctx) {
  base_->Cleanup(buffer_ctx_.get());
  Flush(ctx);
}

JobSpec ApplyInMapperCombining(const JobSpec& spec, size_t memory_budget) {
  JobSpec rewritten = spec;
  const MapperFactory base = spec.mapper_factory;
  const ReducerFactory combiner = spec.combiner_factory;
  rewritten.mapper_factory = [base, combiner, memory_budget]() {
    return std::make_unique<InMapperCombiningMapper>(base, combiner,
                                                     memory_budget);
  };
  // The pattern replaces spill-time combining; keep the combiner out of the
  // spill path so work is not done twice.
  rewritten.combiner_factory = nullptr;
  // A Map call that overflows the budget emits the table that earlier
  // calls filled, so re-executing that call alone (LazySH) would not
  // reproduce its emissions.
  rewritten.deterministic = false;
  rewritten.name = spec.name + "+in_mapper_combining";
  return rewritten;
}

}  // namespace antimr
