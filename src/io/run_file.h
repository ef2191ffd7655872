// Sorted-run streams and the one on-disk sorted-run format. A run is a
// sequence of key/value records sorted by key, serialized as
// varint(klen) key varint(vlen) value, repeated, and stored as a block
// segment (BlockRunWriter/BlockRunReader): the serialized run is cut into
// ~block_bytes chunks at record boundaries, and each chunk is independently
// compressed and framed as
//
//   varint(raw_len) varint(stored_len) fixed32(crc32 of stored bytes) payload
//
// after a 4-byte magic. Map spill runs, merged map output segments and
// Shared's spills (anticombine/shared.h) all use it, mirroring Hadoop's
// IFile. Readers decompress one block at a time with a bounded readahead
// window, so consuming a run needs O(block) memory instead of O(run), and
// corruption is caught per block by the CRC before any bytes are decoded.
#ifndef ANTIMR_IO_RUN_FILE_H_
#define ANTIMR_IO_RUN_FILE_H_

#include <deque>
#include <memory>
#include <string>

#include "codec/codec.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/buffered_io.h"
#include "io/env.h"

namespace antimr {

/// \brief Forward iteration over a sorted key/value sequence.
///
/// A freshly constructed stream is positioned at its first record; Valid()
/// is false when exhausted. key()/value() views are valid until the next
/// call to Next(): a consumer that needs a record past that copies it.
/// This is the one way records are drained, by the merge heap, segment
/// writes, grouped Reduce calls and Shared alike.
class KVStream {
 public:
  virtual ~KVStream() = default;
  virtual bool Valid() const = 0;
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  virtual Status Next() = 0;
};

// ---------------------------------------------------------------------------
// Block-framed compressed runs (the sorted-run format)
// ---------------------------------------------------------------------------

/// Default cut point for block-framed runs.
constexpr size_t kDefaultBlockBytes = 64 * 1024;
/// Default number of compressed frames a reader keeps buffered ahead.
constexpr size_t kDefaultReadaheadBlocks = 4;

/// \brief Writes a run as independently compressed, CRC-protected blocks.
///
/// Records are appended to an in-memory raw block; once it reaches
/// block_bytes the block is compressed and framed out. Records never span
/// blocks, so a reader can decode any prefix of frames independently.
class BlockRunWriter {
 public:
  struct Options {
    size_t block_bytes = kDefaultBlockBytes;
  };

  BlockRunWriter(std::unique_ptr<WritableFile> file, const Codec* codec,
                 Options options);

  Status Add(const Slice& key, const Slice& value);
  /// Flush the final partial block and close the file. Must be called.
  Status Finish();

  uint64_t raw_bytes() const { return raw_bytes_; }
  /// Total file bytes (magic + frame headers + compressed payloads).
  uint64_t stored_bytes() const { return writer_.bytes_written(); }
  uint64_t record_count() const { return record_count_; }
  uint64_t block_count() const { return block_count_; }
  uint64_t compress_nanos() const { return compress_nanos_; }

 private:
  Status EnsureMagic();
  Status FlushBlock();

  BufferedWriter writer_;
  const Codec* codec_;
  size_t block_bytes_;
  std::string block_;       // raw records accumulating toward the cut point
  std::string compressed_;  // scratch for a compressed payload
  bool wrote_magic_ = false;
  uint64_t raw_bytes_ = 0;
  uint64_t record_count_ = 0;
  uint64_t block_count_ = 0;
  uint64_t compress_nanos_ = 0;
};

/// Cost/volume counters for one BlockRunReader, split the way the shuffle
/// metrics report them.
struct BlockReadStats {
  uint64_t decode_nanos = 0;  ///< CRC verification + decompression
  uint64_t bytes_read = 0;    ///< stored bytes consumed from the source
  uint64_t blocks = 0;        ///< frames decoded
  uint64_t records = 0;       ///< records served
  /// High-water mark of buffered bytes: queued compressed frames plus the
  /// current decompressed block. Bounded by (readahead + 1) frames + one raw
  /// block, independent of segment size.
  uint64_t peak_buffered_bytes = 0;
};

/// \brief Streaming KVStream over a block-framed run with bounded readahead.
///
/// Frames are pulled from the source into a small queue (readahead_blocks
/// deep) and decompressed one at a time, so memory stays O(block) while the
/// source is consumed sequentially. The source is either a SequentialFile
/// (a disk file; each queued frame is a copy) or a byte buffer already in
/// memory (a fetched segment), read in place: queued frames are views into
/// the buffer, and with the none codec so is the current block.
///
/// Record views follow the KVStream contract: valid until the next Next().
/// The reader holds one decoded block, so the Next() that crosses into a
/// new block overwrites the bytes the previous record's views point at.
class BlockRunReader : public KVStream {
 public:
  struct Options {
    size_t readahead_blocks = kDefaultReadaheadBlocks;
    /// Name used in error messages ("segment <name> block <n>: ...").
    std::string name;
  };

  BlockRunReader(std::unique_ptr<SequentialFile> file, const Codec* codec,
                 Options options);
  /// Read `frames` (magic + block frames) in place; `frames` must outlive
  /// the reader.
  BlockRunReader(const Slice& frames, const Codec* codec, Options options);

  /// Check the magic, fill the readahead window, and position at the first
  /// record. Must be called once before use.
  Status Open();

  bool Valid() const override { return valid_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }
  Status Next() override;

  const BlockReadStats& stats() const { return stats_; }

 private:
  struct Frame {
    uint32_t raw_len = 0;
    uint32_t crc = 0;
    Slice payload;      // views `owned` (file source) or the in-place buffer
    std::string owned;  // payload copied out of a file source
  };

  bool SourceAtEof();
  uint64_t SourceConsumed() const;
  Status ReadMagic(std::string* magic);
  Status ReadFrame(Frame* frame);
  Status FillReadahead();
  Status DecodeNextBlock();
  /// Error-context prefix: "segment <name> block <n>: ".
  std::string Where(uint64_t block) const;
  Status CorruptionAt(const std::string& detail) const;
  void NotePeak();

  std::unique_ptr<BufferedReader> file_;  // null when reading in place
  Slice in_place_;                        // unread rest of the buffer
  uint64_t in_place_size_ = 0;
  const Codec* codec_;
  Options opts_;
  std::deque<Frame> readahead_;
  uint64_t readahead_bytes_ = 0;
  Slice block_;             // current block: block_buf_ or a frame view
  std::string block_buf_;   // decoded block, or a file frame's moved payload
  size_t pos_ = 0;          // parse position within block_
  Slice key_;
  Slice value_;
  bool valid_ = false;
  bool source_eof_ = false;
  uint64_t block_index_ = 0;  // index of the current block (1-based once read)
  BlockReadStats stats_;
};

/// Borrowing SequentialFile over a byte buffer; `data` must outlive the
/// returned file.
std::unique_ptr<SequentialFile> NewSliceSource(const Slice& data);

/// Read an entire file into *out (counted as disk read by the Env).
Status ReadFileToString(Env* env, const std::string& fname, std::string* out);

}  // namespace antimr

#endif  // ANTIMR_IO_RUN_FILE_H_
