// Buffered adapters over the Env file handles, plus varint-aware reads of
// the block-segment frame headers. All spill/merge code paths go through
// these so reads and writes are batched the way a real MapReduce runtime
// batches them.
#ifndef ANTIMR_IO_BUFFERED_IO_H_
#define ANTIMR_IO_BUFFERED_IO_H_

#include <memory>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/env.h"

namespace antimr {

/// \brief Buffers Appends to a WritableFile.
class BufferedWriter {
 public:
  explicit BufferedWriter(std::unique_ptr<WritableFile> file,
                          size_t buffer_size = 64 * 1024);
  ~BufferedWriter();

  Status Append(const Slice& data);
  Status AppendVarint32(uint32_t v);
  Status AppendVarint64(uint64_t v);

  /// Flush the internal buffer and close the underlying file.
  Status Close();

  /// Total bytes accepted so far (buffered + flushed).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status FlushBuffer();

  std::unique_ptr<WritableFile> file_;
  std::string buffer_;
  size_t buffer_size_;
  uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

/// \brief Buffers Reads from a SequentialFile and decodes primitives.
class BufferedReader {
 public:
  explicit BufferedReader(std::unique_ptr<SequentialFile> file,
                          size_t buffer_size = 64 * 1024);

  /// True when no more bytes are available.
  bool AtEof();

  Status ReadVarint32(uint32_t* v);
  Status ReadVarint64(uint64_t* v);
  /// Read exactly n bytes into *out (replacing its contents). Fails with
  /// Corruption on short read.
  Status ReadExact(size_t n, std::string* out);

  uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  /// Ensure at least one unconsumed byte is buffered; returns false at EOF.
  bool Fill();
  Status ReadByte(unsigned char* b);

  std::unique_ptr<SequentialFile> file_;
  std::string scratch_;
  Slice avail_;
  uint64_t bytes_consumed_ = 0;
  bool eof_ = false;
};

}  // namespace antimr

#endif  // ANTIMR_IO_BUFFERED_IO_H_
