#include "io/throttled_env.h"

#include <chrono>
#include <thread>

namespace antimr {

void SleepForBytes(uint64_t bytes, double mb_per_s) {
  if (mb_per_s <= 0 || bytes == 0) return;
  const double seconds =
      static_cast<double>(bytes) / (mb_per_s * 1024.0 * 1024.0);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9)));
}

namespace {

// Accumulates charged bytes and sleeps once per ~64 KiB quantum instead of
// once per operation. A real disk's cost is proportional to bytes moved, but
// sleep_for() has a scheduler-granularity floor (tens of microseconds), so
// sleeping per op overcharges fine-grained access patterns — e.g. small
// frame-header reads, or record-at-a-time probes — by orders of magnitude.
// Batching the sleep keeps the simulated time proportional to bytes
// regardless of op size. Call Flush() at a natural stream boundary (Close,
// EOF) to charge the sub-quantum tail.
class ByteThrottle {
 public:
  explicit ByteThrottle(double mb_per_s) : mb_per_s_(mb_per_s) {}

  void Charge(uint64_t bytes) {
    if (mb_per_s_ <= 0) return;
    pending_ += bytes;
    if (pending_ >= kQuantumBytes) {
      SleepForBytes(pending_, mb_per_s_);
      pending_ = 0;
    }
  }

  void Flush() {
    if (mb_per_s_ <= 0 || pending_ == 0) return;
    SleepForBytes(pending_, mb_per_s_);
    pending_ = 0;
  }

 private:
  static constexpr uint64_t kQuantumBytes = 64 * 1024;
  uint64_t pending_ = 0;
  double mb_per_s_;
};

class ThrottledWritableFile : public WritableFile {
 public:
  ThrottledWritableFile(std::unique_ptr<WritableFile> base, double mb_per_s)
      : base_(std::move(base)), throttle_(mb_per_s) {}

  Status Append(const Slice& data) override {
    throttle_.Charge(data.size());
    return base_->Append(data);
  }
  Status Close() override {
    throttle_.Flush();
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  ByteThrottle throttle_;
};

class ThrottledSequentialFile : public SequentialFile {
 public:
  ThrottledSequentialFile(std::unique_ptr<SequentialFile> base,
                          double mb_per_s)
      : base_(std::move(base)), throttle_(mb_per_s) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status st = base_->Read(n, result, scratch);
    if (st.ok()) {
      if (result->empty()) {
        throttle_.Flush();  // EOF: charge the sub-quantum tail
      } else {
        throttle_.Charge(result->size());
      }
    }
    return st;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  ByteThrottle throttle_;
};

class ThrottledRandomAccessFile : public RandomAccessFile {
 public:
  ThrottledRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                            double mb_per_s)
      : base_(std::move(base)), throttle_(mb_per_s) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status st = base_->Read(offset, n, result, scratch);
    // Random-access handles have no close/EOF boundary; a sub-quantum tail
    // held at destruction goes uncharged (bounded simulation error <64 KiB).
    if (st.ok()) throttle_.Charge(result->size());
    return st;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  mutable ByteThrottle throttle_;
};

class ThrottledEnv : public Env {
 public:
  ThrottledEnv(Env* base, double mb_per_s)
      : base_(base), mb_per_s_(mb_per_s) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewWritableFile(fname, &inner));
    *file = std::make_unique<ThrottledWritableFile>(std::move(inner),
                                                    mb_per_s_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    std::unique_ptr<SequentialFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewSequentialFile(fname, &inner));
    *file = std::make_unique<ThrottledSequentialFile>(std::move(inner),
                                                      mb_per_s_);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    std::unique_ptr<RandomAccessFile> inner;
    ANTIMR_RETURN_NOT_OK(base_->NewRandomAccessFile(fname, &inner));
    *file = std::make_unique<ThrottledRandomAccessFile>(std::move(inner),
                                                        mb_per_s_);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    // Untouched passthrough: the base Env's errno-derived Status code
    // (NotFound vs transient IOError) must reach the retry classifier.
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  Env* base_;
  double mb_per_s_;
};

}  // namespace

std::unique_ptr<Env> NewThrottledEnv(Env* base, double disk_mb_per_s) {
  return std::make_unique<ThrottledEnv>(base, disk_mb_per_s);
}

}  // namespace antimr
