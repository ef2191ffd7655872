// Storage abstraction in the RocksDB style. Each simulated cluster node gets
// its own Env instance (its "local disks"); every byte that flows through an
// Env is counted, which is how the benchmark harness reproduces the paper's
// "total disk read/write" columns without real hardware.
#ifndef ANTIMR_IO_ENV_H_
#define ANTIMR_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace antimr {

/// \brief Append-only file handle.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
};

/// \brief Sequential read handle.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  /// Read up to n bytes. On success *result holds the bytes actually read
  /// (empty at EOF). `scratch` must stay alive while *result is used.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  /// Skip n bytes forward (clamped at EOF).
  virtual Status Skip(uint64_t n) = 0;
};

/// \brief Positional read handle.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
};

/// \brief Byte-level I/O counters, aggregated per Env.
struct IoStats {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t files_created = 0;
  uint64_t files_deleted = 0;
};

/// \brief Filesystem-like storage for one simulated node.
///
/// All methods are thread-safe. Read/write byte counts are tracked by the
/// concrete implementations and surfaced through stats().
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* file) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* file) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* file) = 0;

  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status DeleteFile(const std::string& fname) = 0;
  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status ListFiles(std::vector<std::string>* names) = 0;

  /// Snapshot of cumulative I/O counters.
  virtual IoStats stats() const = 0;
  virtual void ResetStats() = 0;
};

/// In-process filesystem; the default substrate for simulated local disks.
std::unique_ptr<Env> NewMemEnv();

/// An Env over `base` (borrowed, must outlive it) whose stats() count only
/// the traffic that goes through it. Distributed tasks share their worker's
/// Env, so each task measures its own disk bytes on one of these.
std::unique_ptr<Env> NewCountingEnv(Env* base);

/// Real-filesystem Env rooted at `root_dir` (created if absent). File names
/// must be relative and slash-free components are created under the root.
std::unique_ptr<Env> NewPosixEnv(const std::string& root_dir);

}  // namespace antimr

#endif  // ANTIMR_IO_ENV_H_
