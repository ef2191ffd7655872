#include "wrappers.h"

#include <string>
#include <utility>

#include "spans.h"

namespace perfbench {

using antimr::Env;
using antimr::JobSpec;
using antimr::MapContext;
using antimr::Mapper;
using antimr::Partitioner;
using antimr::RandomAccessFile;
using antimr::RecordBatch;
using antimr::ReduceContext;
using antimr::Reducer;
using antimr::SequentialFile;
using antimr::Slice;
using antimr::Status;
using antimr::TaskInfo;
using antimr::ValueIterator;
using antimr::WritableFile;

namespace {

// --- workloads layer: the user's functions --------------------------------

class UserMapper : public Mapper {
 public:
  explicit UserMapper(std::unique_ptr<Mapper> inner)
      : inner_(std::move(inner)) {}

  void Setup(const TaskInfo& info, MapContext* ctx) override {
    inner_->Setup(info, ctx);
  }
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ScopedSpan span(kUserMap);
    inner_->Map(key, value, ctx);
  }
  void Cleanup(MapContext* ctx) override { inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<Mapper> inner_;
};

class UserReducer : public Reducer {
 public:
  explicit UserReducer(std::unique_ptr<Reducer> inner)
      : inner_(std::move(inner)) {}

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    inner_->Setup(info, ctx);
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    ScopedSpan span(kUserReduce);
    inner_->Reduce(key, values, ctx);
  }
  void Cleanup(ReduceContext* ctx) override { inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<Reducer> inner_;
};

class UserPartitioner : public Partitioner {
 public:
  explicit UserPartitioner(std::shared_ptr<const Partitioner> inner)
      : inner_(std::move(inner)) {}

  int Partition(const Slice& key, int num_partitions) const override {
    ScopedSpan span(kUserPartition);
    return inner_->Partition(key, num_partitions);
  }
  Status ValidatePartitions(int num_partitions) const override {
    return inner_->ValidatePartitions(num_partitions);
  }

 private:
  std::shared_ptr<const Partitioner> inner_;
};

// --- framework calls made from inside the anticombine layer ---------------

class EmitSpanMapContext : public MapContext {
 public:
  MapContext* inner = nullptr;

  void Emit(const Slice& key, const Slice& value) override {
    ScopedSpan span(kMrEmit);
    inner->Emit(key, value);
  }
  void EmitBatch(const RecordBatch& batch) override {
    ScopedSpan span(kMrEmit);
    inner->EmitBatch(batch);
  }
};

class EmitSpanReduceContext : public ReduceContext {
 public:
  ReduceContext* inner = nullptr;

  void Emit(const Slice& key, const Slice& value) override {
    ScopedSpan span(kMrEmit);
    inner->Emit(key, value);
  }
};

class NextSpanIterator : public ValueIterator {
 public:
  explicit NextSpanIterator(ValueIterator* inner) : inner_(inner) {}

  bool Next(Slice* value) override {
    ScopedSpan span(kMrNext);
    return inner_->Next(value);
  }
  Slice key() const override { return inner_->key(); }

 private:
  ValueIterator* inner_;
};

// --- anticombine layer: the transformed mapper and reducer ----------------
//
// One instance lives for one task on one thread, from the framework's
// factory call to the end of the task, so its lifetime is the task span.

class AcMapper : public Mapper {
 public:
  explicit AcMapper(std::unique_ptr<Mapper> inner) : inner_(std::move(inner)) {
    task_.Begin("map_task");
  }
  ~AcMapper() override { task_.End(); }

  void Setup(const TaskInfo& info, MapContext* ctx) override {
    ScopedSpan span(kAcMap);
    ctx_.inner = ctx;
    inner_->Setup(info, &ctx_);
  }
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ScopedSpan span(kAcMap);
    ctx_.inner = ctx;
    inner_->Map(key, value, &ctx_);
  }
  void Cleanup(MapContext* ctx) override {
    ScopedSpan span(kAcMap);
    ctx_.inner = ctx;
    inner_->Cleanup(&ctx_);
  }

 private:
  TaskSpan task_;
  EmitSpanMapContext ctx_;
  std::unique_ptr<Mapper> inner_;
};

class AcReducer : public Reducer {
 public:
  explicit AcReducer(std::unique_ptr<Reducer> inner)
      : inner_(std::move(inner)) {
    task_.Begin("reduce_task");
  }
  ~AcReducer() override { task_.End(); }

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    ScopedSpan span(kAcReduce);
    ctx_.inner = ctx;
    inner_->Setup(info, &ctx_);
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    ScopedSpan span(kAcReduce);
    ctx_.inner = ctx;
    NextSpanIterator timed_values(values);
    inner_->Reduce(key, &timed_values, &ctx_);
  }
  void Cleanup(ReduceContext* ctx) override {
    ScopedSpan span(kAcReduce);
    ctx_.inner = ctx;
    inner_->Cleanup(&ctx_);
  }

 private:
  TaskSpan task_;
  EmitSpanReduceContext ctx_;
  std::unique_ptr<Reducer> inner_;
};

// --- io layer: the benchmark-owned Env ------------------------------------

class TimingWritableFile : public WritableFile {
 public:
  explicit TimingWritableFile(std::unique_ptr<WritableFile> inner)
      : inner_(std::move(inner)) {}

  Status Append(const Slice& data) override {
    ScopedSpan span(kIoWrite, /*store=*/true);
    CountIo(data.size(), 0, 0);
    return inner_->Append(data);
  }
  Status Close() override {
    ScopedSpan span(kIoWrite, /*store=*/true);
    return inner_->Close();
  }

 private:
  std::unique_ptr<WritableFile> inner_;
};

class TimingSequentialFile : public SequentialFile {
 public:
  explicit TimingSequentialFile(std::unique_ptr<SequentialFile> inner)
      : inner_(std::move(inner)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan span(kIoRead, /*store=*/true);
    Status st = inner_->Read(n, result, scratch);
    if (st.ok()) CountIo(0, result->size(), 0);
    return st;
  }
  Status Skip(uint64_t n) override { return inner_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> inner_;
};

class TimingRandomAccessFile : public RandomAccessFile {
 public:
  explicit TimingRandomAccessFile(std::unique_ptr<RandomAccessFile> inner)
      : inner_(std::move(inner)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(kIoRead, /*store=*/true);
    Status st = inner_->Read(offset, n, result, scratch);
    if (st.ok()) CountIo(0, result->size(), 0);
    return st;
  }

 private:
  std::unique_ptr<RandomAccessFile> inner_;
};

class TimingEnv : public Env {
 public:
  explicit TimingEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> inner;
    Status st = base_->NewWritableFile(fname, &inner);
    if (!st.ok()) return st;
    CountIo(0, 0, 1);
    *file = std::make_unique<TimingWritableFile>(std::move(inner));
    return st;
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* file) override {
    std::unique_ptr<SequentialFile> inner;
    Status st = base_->NewSequentialFile(fname, &inner);
    if (!st.ok()) return st;
    *file = std::make_unique<TimingSequentialFile>(std::move(inner));
    return st;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    std::unique_ptr<RandomAccessFile> inner;
    Status st = base_->NewRandomAccessFile(fname, &inner);
    if (!st.ok()) return st;
    *file = std::make_unique<TimingRandomAccessFile>(std::move(inner));
    return st;
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }
  antimr::IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  Env* base_;
};

}  // namespace

JobSpec WrapUserFunctions(const JobSpec& original) {
  JobSpec spec = original;
  antimr::MapperFactory mapper = original.mapper_factory;
  antimr::ReducerFactory reducer = original.reducer_factory;
  spec.mapper_factory = [mapper] {
    return std::make_unique<UserMapper>(mapper());
  };
  spec.reducer_factory = [reducer] {
    return std::make_unique<UserReducer>(reducer());
  };
  spec.partitioner = std::make_shared<UserPartitioner>(original.partitioner);
  return spec;
}

JobSpec WrapAntiCombined(const JobSpec& transformed) {
  JobSpec spec = transformed;
  antimr::MapperFactory mapper = transformed.mapper_factory;
  antimr::ReducerFactory reducer = transformed.reducer_factory;
  spec.mapper_factory = [mapper] {
    return std::make_unique<AcMapper>(mapper());
  };
  spec.reducer_factory = [reducer] {
    return std::make_unique<AcReducer>(reducer());
  };
  return spec;
}

std::unique_ptr<Env> NewTimingEnv(Env* base) {
  return std::make_unique<TimingEnv>(base);
}

}  // namespace perfbench
