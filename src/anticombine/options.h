// Tuning knobs of the Anti-Combining transformation: the paper's runtime
// cost threshold T and Combiner flag C (Section 6.1), plus the Shared
// structure's memory/spill parameters (Section 5).
#ifndef ANTIMR_ANTICOMBINE_OPTIONS_H_
#define ANTIMR_ANTICOMBINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace antimr {
namespace anticombine {

struct AntiCombineOptions {
  /// The paper's threshold T, in nanoseconds of measured (Map + Partition)
  /// re-execution cost. LazySH is considered for a Map call only when
  /// (map_cost + partition_cost) * partitions_touched <= T.
  ///   T = 0          -> EagerSH only (the paper's Adaptive-0)
  ///   T = kInfiniteT -> unrestricted choice (Adaptive-infinity)
  uint64_t lazy_threshold_nanos = kInfiniteT;

  /// The paper's flag C: run the (transformed) Combiner in the map phase.
  /// With C = 0 the Combiner is skipped map-side but still applied inside
  /// Shared during the reduce phase (Section 6.2, "Combiner on or off").
  bool map_phase_combiner = true;

  /// Apply the original Combiner inside Shared as records are decoded
  /// (reduce-phase combining, Sections 5 and 7.5).
  bool combine_in_shared = true;

  /// Shared's in-memory budget before spilling to local disk.
  size_t shared_memory_bytes = 8 * 1024 * 1024;

  /// Force LazySH for every partition that has an input record to resend
  /// (subject to determinism). This is the paper's pure "LazySH" strategy
  /// from Figure 9; normally leave false and let the size test decide.
  bool force_lazy = false;

  /// Make the Eager/Lazy choice independently per partition (paper Section
  /// 6.1). Setting false chooses once per Map call from the summed sizes —
  /// the ablation showing why per-partition is strictly better.
  bool per_partition_choice = true;

  /// Cross-call sharing window (the paper's future-work extension, Section
  /// 9: "optimization not only for the input of a single Map call, but
  /// also across all Map calls in the same map task"). With window W > 1
  /// the AntiMapper batches up to W Map calls and EagerSH-groups values
  /// across them; LazySH still resends individual input records. 1 (the
  /// paper's published algorithm) encodes each Map call independently.
  int cross_call_window = 1;

  static constexpr uint64_t kInfiniteT =
      std::numeric_limits<uint64_t>::max();

  /// Adaptive-0: EagerSH for every record.
  static AntiCombineOptions EagerOnly() {
    AntiCombineOptions o;
    o.lazy_threshold_nanos = 0;
    return o;
  }

  /// Adaptive-infinity: free per-partition choice by encoded size.
  static AntiCombineOptions Unrestricted() { return AntiCombineOptions(); }

  /// Adaptive-alpha: the paper's 400 microsecond runtime threshold.
  static AntiCombineOptions Alpha() {
    AntiCombineOptions o;
    o.lazy_threshold_nanos = 400'000;
    return o;
  }

  /// Pure LazySH (Figure 9's "LazySH" strategy).
  static AntiCombineOptions LazyOnly() {
    AntiCombineOptions o;
    o.force_lazy = true;
    return o;
  }
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_OPTIONS_H_
