// Dataset lifetime tracking for the Executor. Intermediate datasets (one
// stage's reduce output feeding other stages' maps) are materialized per
// reduce partition; the catalog hands each consuming map task a split over
// exactly one partition and refcounts outstanding consumer tasks so a
// dataset's memory is reclaimed the moment its last consumer finishes —
// long before the whole plan completes, which is what keeps an N-stage
// pipeline's footprint at O(live stages), not O(N).
#ifndef ANTIMR_ENGINE_DATASET_CATALOG_H_
#define ANTIMR_ENGINE_DATASET_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mr/api.h"

namespace antimr {
namespace engine {

/// Post-run description of one dataset, for metrics and tests.
struct DatasetInfo {
  std::string name;
  bool external = false;
  int producer_stage = -1;  ///< -1 for external inputs
  int num_partitions = 0;   ///< reduce partitions (0 for external)
  uint64_t records = 0;     ///< published records (intermediate only)
  uint64_t bytes = 0;       ///< key+value bytes published
  bool retained = false;    ///< kept after the run (a plan output)
  bool released = false;    ///< reclaimed after the last consumer finished
};

/// \brief Registry of a plan's datasets and their materialized partitions.
///
/// Registration happens single-threaded during lowering; Publish /
/// PartitionSplit / ConsumerDone are called from pool threads and are
/// thread-safe. Ordering is provided by the TaskGraph: a partition is only
/// read by tasks that depend on the reduce task that published it.
class DatasetCatalog {
 public:
  /// Register an external dataset (its splits stay with the plan).
  void RegisterExternal(const std::string& name);

  /// Register a stage output with `num_partitions` reduce partitions.
  /// `retained` datasets survive their last consumer (plan outputs).
  void RegisterIntermediate(const std::string& name, int producer_stage,
                            int num_partitions, bool retained);

  /// Declare the total number of consuming map tasks for `name`. Must be
  /// called before lowering adds any task, so a fast consumer can never
  /// drop the count to zero while later stages still register interest.
  void SetPendingConsumers(const std::string& name, int count);

  /// Publish partition `partition` of `name` (called by its reduce task).
  void Publish(const std::string& name, int partition,
               std::vector<KV> records);

  /// A split reading partition `partition` of `name`. The split's open()
  /// must only run after the producing reduce task finished (the planner
  /// guarantees this with a graph edge).
  InputSplit PartitionSplit(const std::string& name, int partition);

  /// One consuming map task of `name` finished. When the last one is done
  /// a non-retained dataset's partitions are released.
  void ConsumerDone(const std::string& name);

  /// Force-release every non-external, non-retained dataset still held.
  /// Run-epilogue safety net: on a failure path, skipped consumer tasks
  /// never call ConsumerDone, so without this the data would stay resident
  /// for the catalog's remaining lifetime. Only call once all tasks that
  /// could read the catalog are terminal.
  void ReleaseAll();

  /// Move a retained dataset's partitions out (post-run).
  std::vector<std::vector<KV>> TakePartitions(const std::string& name);

  /// Post-run snapshot of every registered dataset.
  std::vector<DatasetInfo> Describe() const;

 private:
  struct Dataset {
    DatasetInfo info;
    std::vector<std::shared_ptr<std::vector<KV>>> partitions;
    int pending_consumers = 0;
  };

  Dataset* Find(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, Dataset> datasets_;
};

}  // namespace engine
}  // namespace antimr

#endif  // ANTIMR_ENGINE_DATASET_CATALOG_H_
