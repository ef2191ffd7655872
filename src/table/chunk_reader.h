// Reader half of the columnar chunk format (table/format.h): a streaming
// SegmentStream with bounded readahead, per-block header/payload CRC
// verification, min/max-key block pruning, and native RecordBatch output.
//
// Pruning happens at read time, before the payload leaves storage: a block
// whose stats miss the key range is Skip()ed, so its bytes are neither
// transferred (no simulated-bandwidth sleep) nor decoded. Decoded blocks
// are double-buffered exactly like BlockRunReader's, so NextBatch views
// survive the advance onto the next block.
#ifndef ANTIMR_TABLE_CHUNK_READER_H_
#define ANTIMR_TABLE_CHUNK_READER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "common/arena.h"
#include "common/record_batch.h"
#include "common/status.h"
#include "io/env.h"
#include "io/run_file.h"
#include "table/format.h"

namespace antimr {

/// \brief Streaming reader over a columnar chunk.
class ChunkReader : public SegmentStream {
 public:
  struct Options {
    size_t readahead_blocks = kDefaultReadaheadBlocks;
    /// Name used in error messages ("chunk <name> block <n>: ...").
    std::string name;
    /// Optional pruning range (borrowed; must outlive the reader). Blocks
    /// whose [min,max] stats miss it are skipped wholesale; records of
    /// surviving blocks are NOT re-filtered — stats-based pruning only ever
    /// drops blocks that contain no range keys at all.
    const KeyRange* prune = nullptr;
    /// Comparator the chunk was sorted with; required when prune is set.
    KeyComparator prune_cmp;
  };

  ChunkReader(std::unique_ptr<SequentialFile> file, Options options);

  /// Check the magic, fill the readahead window, and position at the first
  /// record. Must be called once before use.
  Status Open();

  bool Valid() const override { return valid_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }
  Status Next() override;

  /// Eager batches capped at the current block's tail (one buffer
  /// generation per batch, like BlockRunReader::NextBatch).
  Status NextBatch(RecordBatch* batch, const BatchOptions& opts) override;
  bool SupportsEagerBatches() const override { return true; }

  const BlockReadStats& stats() const override { return stats_; }

 private:
  /// One block's parsed header plus its stored column payloads.
  struct Frame {
    uint64_t record_count = 0;
    uint8_t flags = 0;
    KeyEncoding key_encoding = KeyEncoding::kRaw;
    CodecType key_codec = CodecType::kNone;
    CodecType value_codec = CodecType::kNone;
    uint32_t key_raw_len = 0;
    uint32_t key_stored_len = 0;
    uint32_t val_raw_len = 0;
    uint32_t val_stored_len = 0;
    uint32_t payload_crc = 0;
    std::string payload;  ///< key_payload || value_payload, stored bytes
  };

  /// One decoded block. Two instances alternate (double buffer): views
  /// into a block stay valid until the decode after the next one.
  struct DecodedBlock {
    std::string payload;    ///< owned stored bytes (moved from the frame)
    std::string key_plain;  ///< decompressed key column (when compressed)
    std::string val_plain;  ///< decompressed value column (when compressed)
    std::vector<Slice> dict;
    std::vector<RecordRef> rows;
    Arena rematerialized;  ///< standard-eager bytes rebuilt from kEagerDict

    void Reset() {
      payload.clear();
      key_plain.clear();
      val_plain.clear();
      dict.clear();
      rows.clear();
      rematerialized.Clear();
    }
  };

  DecodedBlock& current() { return blocks_[cur_]; }
  const DecodedBlock& current() const { return blocks_[cur_]; }

  Status ReadExactDirect(size_t n, std::string* out, bool* at_eof);
  Status FillReadahead();
  Status DecodeNextBlock();
  /// Decode blocks until row_pos_ lands on a record (or the chunk ends) and
  /// publish it via key_/value_/valid_.
  Status PositionAtRow();
  Status CorruptionAt(const std::string& detail) const;
  void NotePeak();

  std::unique_ptr<SequentialFile> file_;
  Options opts_;
  std::deque<Frame> readahead_;
  uint64_t readahead_bytes_ = 0;
  bool source_eof_ = false;

  DecodedBlock blocks_[2];
  /// Decode scratch: wire-form (varint(len) || bytes) views of the current
  /// block's dictionary entries, rebuilt per rewrite-flagged block and
  /// consumed entirely inside that block's rematerialize pass.
  std::vector<Slice> dict_wire_;
  int cur_ = 0;
  size_t row_pos_ = 0;
  Slice key_;
  Slice value_;
  bool valid_ = false;
  uint64_t block_index_ = 0;  ///< blocks read (1-based once past the magic)

  BlockReadStats stats_;
};

/// Convenience: open chunk `fname` on `env` and return a positioned reader.
Status OpenChunk(Env* env, const std::string& fname,
                 ChunkReader::Options options,
                 std::unique_ptr<ChunkReader>* reader);

}  // namespace antimr

#endif  // ANTIMR_TABLE_CHUNK_READER_H_
