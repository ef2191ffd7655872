// Cooperative cancellation + coarse progress for one running task attempt.
// The worker registers a TaskControl per inflight rpc; the task loop bumps
// progress_permille between batches and polls cancel at the same points.
// Cancellation surfaces as a transient IOError from the task body, so the
// attempt-scoped scrub (map_task.cc RemovePartialOutput) runs exactly as it
// would for a crashed attempt — speculation's loser leaves no residue.
#ifndef ANTIMR_MR_TASK_CONTROL_H_
#define ANTIMR_MR_TASK_CONTROL_H_

#include <atomic>
#include <cstdint>

namespace antimr {

struct TaskControl {
  std::atomic<bool> cancel{false};
  /// 0..1000 (per input record for maps, per fetched segment for
  /// reduces). Monotone within one attempt.
  std::atomic<uint32_t> progress_permille{0};

  bool cancelled() const { return cancel.load(std::memory_order_relaxed); }
  void RequestCancel() { cancel.store(true, std::memory_order_relaxed); }
  void SetProgress(uint64_t done, uint64_t total) {
    if (total == 0) return;
    if (done > total) done = total;
    progress_permille.store(static_cast<uint32_t>(done * 1000 / total),
                            std::memory_order_relaxed);
  }
};

}  // namespace antimr

#endif  // ANTIMR_MR_TASK_CONTROL_H_
