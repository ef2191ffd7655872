// Map-output segment format and the mapper->reducer transfer path. A segment
// is one partition's sorted records, serialized in run format, cut into
// ~64 KiB blocks, and independently compressed + CRC-framed per block (see
// io/run_file.h). Spill files and final map outputs share the format.
//
// Reducers consume segments from in-memory FetchedSegments that a concurrent
// fetcher copied through the shuffle service while the map wave was still
// running (mirroring Hadoop's parallel-copy shuffle phase). Decompression is
// block-at-a-time with bounded readahead, so a reduce task's decode buffers
// are O(blocks x readahead), not O(segment).
#ifndef ANTIMR_MR_SHUFFLE_H_
#define ANTIMR_MR_SHUFFLE_H_

#include <memory>
#include <string>

#include "codec/codec.h"
#include "io/env.h"
#include "io/run_file.h"
#include "table/format.h"

namespace antimr {

/// Default block size for shuffle segments.
constexpr size_t kShuffleBlockBytes = kDefaultBlockBytes;
/// Default per-segment readahead window (in blocks).
constexpr size_t kShuffleReadaheadBlocks = kDefaultReadaheadBlocks;

/// File name for map task `map_task`'s final output segment for `partition`.
std::string SegmentFileName(const std::string& job_id, int map_task,
                            int partition);

/// File name for spill `spill` of map task `map_task`, partition `partition`.
std::string SpillFileName(const std::string& job_id, int map_task, int spill,
                          int partition);

struct SegmentWriteResult {
  uint64_t raw_bytes = 0;     ///< serialized run bytes before compression
  uint64_t stored_bytes = 0;  ///< bytes written to the file
  uint64_t records = 0;
  uint64_t blocks = 0;
  uint64_t dict_blocks = 0;       ///< columnar only: dictionary-keyed blocks
  uint64_t payload_rewrites = 0;  ///< columnar only: EagerSH->dict rewrites
};

/// How WriteSegment lays a segment out on storage.
struct SegmentWriteOptions {
  RecordFormat format = RecordFormat::kRow;
  /// Codec for row blocks, and the per-column candidate for columnar ones.
  const Codec* codec = nullptr;  ///< null = kNone
  size_t block_bytes = kShuffleBlockBytes;
  /// Columnar only: rewrite EagerSH payloads against the block dictionary
  /// (safe only when every value is an anti-combining flagged payload).
  bool rewrite_eager_payloads = false;
  /// The stream's record views stay valid until WriteSegment returns (true
  /// for arena-backed buffer drains and owned vectors; false for merges,
  /// whose views die at each batch). Lets the columnar writer stage views
  /// instead of copying every record.
  bool stable_input = false;
};

/// Serialize `stream` (already key-sorted) into `options.format` — row
/// block-framed runs or columnar chunks — and write to `fname`. Streaming
/// and batched: records drain via NextBatch, memory use is O(block).
/// Compression CPU is added to *compress_nanos.
Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const SegmentWriteOptions& options,
                    uint64_t* compress_nanos, SegmentWriteResult* out);

/// Row-format convenience overload (the pre-columnar signature).
Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const Codec* codec, uint64_t* compress_nanos,
                    SegmentWriteResult* out,
                    size_t block_bytes = kShuffleBlockBytes);

struct SegmentReadOptions {
  size_t readahead_blocks = kShuffleReadaheadBlocks;
  /// Optional key-range prune (columnar segments only; borrowed, must
  /// outlive the reader). Blocks whose min/max stats miss the range are
  /// skipped without reading — their bytes pay no disk cost.
  const KeyRange* prune = nullptr;
  /// Comparator the segment was sorted with; required when prune is set.
  KeyComparator prune_cmp;
};

/// Open `fname` as a streaming segment reader positioned at its first
/// record. The storage format is detected from the file magic ("ABS1" row
/// runs vs "ACH1" columnar chunks), so readers never need to know how a
/// segment was written. Per-block CRC failures surface as
/// Status::Corruption with file and block context.
Status OpenSegmentReader(Env* env, const std::string& fname,
                         const Codec* codec, const SegmentReadOptions& options,
                         std::unique_ptr<SegmentStream>* reader);

/// \brief One segment copied to the reduce side by a concurrent fetcher.
///
/// Holds the segment's stored (compressed) frames; decompression still
/// happens block-at-a-time when the segment is merged. This is the analog of
/// Hadoop's in-memory shuffle buffer.
struct FetchedSegment {
  std::string file;      ///< origin file name (error context)
  std::string frames;    ///< raw stored bytes (magic + block frames)
  uint64_t fetched_bytes = 0;  ///< == frames.size(); shuffle transfer volume
  uint64_t fetch_nanos = 0;    ///< wall time of the copy, incl. simulated
                               ///< disk and network transfer time
};

/// Open a previously fetched segment as a streaming reader, detecting the
/// format from the frames' magic like OpenSegmentReader. `segment` must
/// outlive the reader (its frames are borrowed, not copied). Pruning via
/// `prune`/`prune_cmp` (columnar only) skips decode CPU — the bytes were
/// already transferred by the fetch.
Status OpenFetchedSegment(const FetchedSegment& segment, const Codec* codec,
                          size_t readahead_blocks,
                          std::unique_ptr<SegmentStream>* reader,
                          const KeyRange* prune = nullptr,
                          KeyComparator prune_cmp = KeyComparator());

}  // namespace antimr

#endif  // ANTIMR_MR_SHUFFLE_H_
