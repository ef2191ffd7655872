// Declarative description of a MapReduce job: the user functions, the data
// movement knobs (partitions, codecs, buffer sizes), and the comparators.
// Anti-Combining's syntactic transformation (anticombine/transform.h) maps a
// JobSpec to another JobSpec.
#ifndef ANTIMR_MR_JOB_SPEC_H_
#define ANTIMR_MR_JOB_SPEC_H_

#include <memory>

#include "codec/codec.h"
#include "mr/api.h"

namespace antimr {

/// \brief Full specification of a MapReduce job.
struct JobSpec {
  std::string name = "job";

  MapperFactory mapper_factory;
  ReducerFactory reducer_factory;
  /// Optional Combiner (a Reducer). Applied on map-side spills and merges,
  /// and — in Anti-Combining jobs — inside the reduce-phase Shared structure.
  ReducerFactory combiner_factory;

  /// Optional partial-aggregation Reducer for multi-stage plans (hot-key
  /// splitting, mr/skew.h): unlike reducer_factory, its *output* records
  /// must be parseable as its own (and the final reducer's) *input* values,
  /// so stage-1 partial results can be re-reduced in a merge fix-up stage.
  /// A Combiner usually qualifies. Unset = the job cannot be key-split.
  ReducerFactory partial_reducer_factory;

  std::shared_ptr<const Partitioner> partitioner = DefaultPartitioner();

  /// Total order on intermediate keys (reduce calls happen in this order).
  KeyComparator key_cmp = BytewiseCompare;
  /// Key-equality grouping for Reduce calls (secondary sort); defaults to
  /// key_cmp when unset.
  KeyComparator grouping_cmp;

  int num_reduce_tasks = 4;

  /// Compression applied to map output segments (spills and shuffled data),
  /// as with Hadoop's mapred.compress.map.output.
  CodecType map_output_codec = CodecType::kNone;

  /// Map-side in-memory output buffer capacity; exceeding it triggers a
  /// partition/sort/spill cycle (scaled-down analog of Hadoop's io.sort.mb).
  size_t map_buffer_bytes = 4 * 1024 * 1024;

  /// Block size for shuffle segments: each segment is cut at record
  /// boundaries into ~this many raw bytes per independently compressed,
  /// CRC-framed block, so reducers can stream with O(block) memory.
  size_t shuffle_block_bytes = 64 * 1024;

  /// Whether Map and Partition are deterministic. LazySH re-executes both on
  /// reducers, so Anti-Combining refuses Lazy encoding when false (paper
  /// Section 6.2, "Non-determinism"). A Map whose emissions depend on
  /// earlier calls (in-mapper combining flushes a table that earlier calls
  /// filled) counts as non-deterministic: one call re-executed alone does
  /// not reproduce what it emitted.
  bool deterministic = true;

  /// Set by the Anti-Combining transform: the wrapped mapper records the
  /// logical (pre-encoding) map output in map_output_* itself. When false,
  /// the map task driver mirrors emitted_* into map_output_*.
  bool mapper_reports_logical_output = false;

  /// Resolved grouping comparator (grouping_cmp if set, else key_cmp).
  KeyComparator EffectiveGroupingCmp() const {
    return grouping_cmp ? grouping_cmp : key_cmp;
  }

  /// Check that required fields are populated and knobs are sane.
  Status Validate() const;
};

}  // namespace antimr

#endif  // ANTIMR_MR_JOB_SPEC_H_
