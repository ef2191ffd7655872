// Map-output segment format and the mapper->reducer transfer path. A segment
// is one sorted run of one partition's records, serialized in run format,
// cut into ~64 KiB blocks, and independently compressed + CRC-framed per
// block (see io/run_file.h). A map task's spills are written as segments
// ("runs") and shipped as they are; only a task with a Combiner and three or
// more spills merges them map-side into one segment per partition
// (mr/map_task.h).
//
// Reducers consume segments from in-memory FetchedSegments that a concurrent
// fetcher copied through the shuffle service while the map wave was still
// running (mirroring Hadoop's parallel-copy shuffle phase), and k-way merge
// every run of every map. Frames are read in place and decompressed
// block-at-a-time, so a reduce task's decode buffers are O(blocks), not
// O(segment).
#ifndef ANTIMR_MR_SHUFFLE_H_
#define ANTIMR_MR_SHUFFLE_H_

#include <memory>
#include <string>

#include "codec/codec.h"
#include "io/env.h"
#include "io/run_file.h"

namespace antimr {

/// Default block size for shuffle segments.
constexpr size_t kShuffleBlockBytes = kDefaultBlockBytes;
/// Default per-segment readahead window (in blocks).
constexpr size_t kShuffleReadaheadBlocks = kDefaultReadaheadBlocks;

/// File name for map task `map_task`'s merged output segment for
/// `partition`.
std::string SegmentFileName(const std::string& job_id, int map_task,
                            int partition);

/// File name for run (spill) `run` of map task `map_task`, partition
/// `partition`.
std::string RunFileName(const std::string& job_id, int map_task,
                        int partition, int run);

struct SegmentWriteResult {
  uint64_t raw_bytes = 0;     ///< serialized run bytes before compression
  uint64_t stored_bytes = 0;  ///< bytes written to the file
  uint64_t records = 0;
  uint64_t blocks = 0;
};

/// Serialize `stream` (already key-sorted) into block-framed runs of
/// ~`block_bytes` raw bytes, each compressed with `codec` (null = kNone),
/// and write them to `fname`. Streaming: records drain one at a time, so
/// memory use is O(block). Compression CPU is added to *compress_nanos.
Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const Codec* codec, uint64_t* compress_nanos,
                    SegmentWriteResult* out,
                    size_t block_bytes = kShuffleBlockBytes);

struct SegmentReadOptions {
  size_t readahead_blocks = kShuffleReadaheadBlocks;
};

/// Open `fname` as a streaming segment reader positioned at its first
/// record. A file without the block-segment magic, and per-block CRC
/// failures, surface as Status::Corruption with file and block context.
Status OpenSegmentReader(Env* env, const std::string& fname,
                         const Codec* codec, const SegmentReadOptions& options,
                         std::unique_ptr<BlockRunReader>* reader);

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

/// Open a previously fetched segment as a streaming reader, with the same
/// checks as OpenSegmentReader. The reader works on `segment.frames` in
/// place, so `segment` must outlive it.
Status OpenFetchedSegment(const FetchedSegment& segment, const Codec* codec,
                          size_t readahead_blocks,
                          std::unique_ptr<BlockRunReader>* reader);

}  // namespace antimr

#endif  // ANTIMR_MR_SHUFFLE_H_
