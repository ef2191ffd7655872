#include "io/env.h"

namespace antimr {

// MemEnv and PosixEnv live in mem_env.cc and posix_env.cc; this unit holds
// the counting wrapper.

namespace {

struct Counters {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> files_created{0};
  std::atomic<uint64_t> files_deleted{0};
};

// File handles share the counters, so a handle that outlives its Env
// still counts safely.
class CountingWritableFile : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base,
                       std::shared_ptr<Counters> counters)
      : base_(std::move(base)), counters_(std::move(counters)) {}

  Status Append(const Slice& data) override {
    Status st = base_->Append(data);
    if (st.ok()) {
      counters_->bytes_written.fetch_add(data.size(),
                                         std::memory_order_relaxed);
    }
    return st;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::shared_ptr<Counters> counters_;
};

class CountingSequentialFile : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base,
                         std::shared_ptr<Counters> counters)
      : base_(std::move(base)), counters_(std::move(counters)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status st = base_->Read(n, result, scratch);
    if (st.ok()) {
      counters_->bytes_read.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return st;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  std::shared_ptr<Counters> counters_;
};

class CountingRandomAccessFile : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           std::shared_ptr<Counters> counters)
      : base_(std::move(base)), counters_(std::move(counters)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status st = base_->Read(offset, n, result, scratch);
    if (st.ok()) {
      counters_->bytes_read.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return st;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  std::shared_ptr<Counters> counters_;
};

class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base)
      : base_(base), counters_(std::make_shared<Counters>()) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewWritableFile(fname, &inner));
    counters_->files_created.fetch_add(1, std::memory_order_relaxed);
    *file = std::make_unique<CountingWritableFile>(std::move(inner),
                                                   counters_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    std::unique_ptr<SequentialFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewSequentialFile(fname, &inner));
    *file = std::make_unique<CountingSequentialFile>(std::move(inner),
                                                     counters_);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    std::unique_ptr<RandomAccessFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewRandomAccessFile(fname, &inner));
    *file = std::make_unique<CountingRandomAccessFile>(std::move(inner),
                                                       counters_);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    // The base Env's Status passes through untouched: its code (NotFound
    // vs transient IOError) must reach the retry classifier.
    Status st = base_->DeleteFile(fname);
    if (st.ok()) {
      counters_->files_deleted.fetch_add(1, std::memory_order_relaxed);
    }
    return st;
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }

  IoStats stats() const override {
    IoStats s;
    s.bytes_written = counters_->bytes_written.load(std::memory_order_relaxed);
    s.bytes_read = counters_->bytes_read.load(std::memory_order_relaxed);
    s.files_created = counters_->files_created.load(std::memory_order_relaxed);
    s.files_deleted = counters_->files_deleted.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() override {
    counters_->bytes_written.store(0, std::memory_order_relaxed);
    counters_->bytes_read.store(0, std::memory_order_relaxed);
    counters_->files_created.store(0, std::memory_order_relaxed);
    counters_->files_deleted.store(0, std::memory_order_relaxed);
  }

 private:
  Env* base_;
  std::shared_ptr<Counters> counters_;
};

}  // namespace

std::unique_ptr<Env> NewCountingEnv(Env* base) {
  return std::make_unique<CountingEnv>(base);
}

}  // namespace antimr
