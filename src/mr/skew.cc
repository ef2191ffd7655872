#include "mr/skew.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "mr/metrics.h"

namespace antimr {

namespace {

constexpr char kSaltSeparator = '\0';

/// MapContext that records emitted keys (sampling pass only — values are
/// irrelevant to pivot/hot-key selection).
class KeyCapturingContext : public MapContext {
 public:
  explicit KeyCapturingContext(std::vector<std::string>* keys) : keys_(keys) {}
  void Emit(const Slice& key, const Slice& value) override {
    (void)value;
    keys_->push_back(key.ToString());
  }

 private:
  std::vector<std::string>* keys_;
};

/// Quantile pivots over a bytewise-sorted key sample: num_partitions - 1
/// boundaries at equal sample-rank spacing. Duplicates are kept — a key
/// spanning several quantiles yields repeated pivots, which upper_bound
/// collapses to the first occurrence (adjacent partitions stay empty rather
/// than wrong).
std::vector<std::string> QuantilePivots(const std::vector<std::string>& sorted,
                                        int num_partitions) {
  std::vector<std::string> pivots;
  if (sorted.empty() || num_partitions <= 1) return pivots;
  pivots.reserve(static_cast<size_t>(num_partitions) - 1);
  const size_t n = sorted.size();
  for (int p = 1; p < num_partitions; ++p) {
    size_t idx = n * static_cast<size_t>(p) / static_cast<size_t>(num_partitions);
    if (idx >= n) idx = n - 1;
    pivots.push_back(sorted[idx]);
  }
  return pivots;
}

/// MapContext wrapper rewriting hot-key emits to the salted variant chosen
/// for the current input record.
class SaltingContext : public MapContext {
 public:
  SaltingContext(MapContext* inner, const SkewModel* model)
      : inner_(inner), model_(model) {}

  void set_salt(uint32_t salt) { salt_ = salt; }

  void Emit(const Slice& key, const Slice& value) override {
    if (IsHotKey(*model_, key)) {
      inner_->Emit(Slice(SaltKey(key, salt_)), value);
    } else {
      inner_->Emit(key, value);
    }
  }

 private:
  MapContext* inner_;
  const SkewModel* model_;
  uint32_t salt_ = 0;
};

class SaltingMapper : public Mapper {
 public:
  SaltingMapper(std::unique_ptr<Mapper> base,
                std::shared_ptr<const SkewModel> model)
      : base_(std::move(base)), model_(std::move(model)) {}

  void Setup(const TaskInfo& info, MapContext* ctx) override {
    wrapped_ = std::make_unique<SaltingContext>(ctx, model_.get());
    base_->Setup(info, wrapped_.get());
  }

  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    (void)ctx;  // Setup bound the wrapper to the task's real context
    wrapped_->set_salt(RecordSalt(key, value, model_->hot_fanout));
    base_->Map(key, value, wrapped_.get());
  }

  void Cleanup(MapContext* ctx) override {
    (void)ctx;
    base_->Cleanup(wrapped_.get());
  }

 private:
  std::unique_ptr<Mapper> base_;
  std::shared_ptr<const SkewModel> model_;
  std::unique_ptr<SaltingContext> wrapped_;
};

class IdentityMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, value);
  }
};

/// ReduceContext wrapper stripping the salt off emitted hot keys (stage-1
/// fix-up output must carry the user-visible key).
class StrippingContext : public ReduceContext {
 public:
  StrippingContext(ReduceContext* inner, const SkewModel* model)
      : inner_(inner), model_(model) {}

  void Emit(const Slice& key, const Slice& value) override {
    inner_->Emit(StripSalt(*model_, key), value);
  }

 private:
  ReduceContext* inner_;
  const SkewModel* model_;
};

class SaltStrippingReducer : public Reducer {
 public:
  SaltStrippingReducer(std::unique_ptr<Reducer> base,
                       std::shared_ptr<const SkewModel> model)
      : base_(std::move(base)), model_(std::move(model)) {}

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    wrapped_ = std::make_unique<StrippingContext>(ctx, model_.get());
    base_->Setup(info, wrapped_.get());
    ForwardFailure(ctx);
  }

  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    base_->Reduce(key, values, wrapped_.get());
    ForwardFailure(ctx);
  }

  void Cleanup(ReduceContext* ctx) override {
    base_->Cleanup(wrapped_.get());
    ForwardFailure(ctx);
  }

 private:
  /// The base reducer reports failures on the wrapping context; the
  /// framework checks the outer one.
  void ForwardFailure(ReduceContext* ctx) {
    if (!wrapped_->status().ok()) ctx->Fail(wrapped_->status());
  }

  std::unique_ptr<Reducer> base_;
  std::shared_ptr<const SkewModel> model_;
  std::unique_ptr<StrippingContext> wrapped_;
};

}  // namespace

std::string SaltKey(const Slice& key, uint32_t salt) {
  std::string salted;
  salted.reserve(key.size() + 2);
  salted.append(key.data(), key.size());
  salted.push_back(kSaltSeparator);
  salted.push_back(static_cast<char>('a' + (salt % 26)));
  return salted;
}

Slice StripSalt(const SkewModel& model, const Slice& key) {
  if (key.size() < 2 || key[key.size() - 2] != kSaltSeparator) return key;
  Slice stripped(key.data(), key.size() - 2);
  return IsHotKey(model, stripped) ? stripped : key;
}

bool IsHotKey(const SkewModel& model, const Slice& key) {
  return std::binary_search(
      model.hot_keys.begin(), model.hot_keys.end(), key,
      [](const auto& a, const auto& b) { return Slice(a).compare(Slice(b)) < 0; });
}

uint32_t RecordSalt(const Slice& input_key, const Slice& input_value,
                    int fanout) {
  if (fanout <= 1) return 0;
  const uint64_t h = Hash64(input_key, 0x9e3779b97f4a7c15ULL) ^
                     Hash64(input_value, 0xc2b2ae3d27d4eb4fULL);
  return static_cast<uint32_t>(h % static_cast<uint64_t>(fanout));
}

Status BuildSkewModel(const JobSpec& spec,
                      const std::vector<InputSplit>& splits,
                      const SkewSampleOptions& options, SkewModel* model) {
  *model = SkewModel();
  ANTIMR_RETURN_NOT_OK(spec.Validate());
  if (options.sample_per_split == 0) {
    return Status::InvalidArgument("SkewSampleOptions: sample_per_split == 0");
  }

  // Reservoir per split, so every split contributes proportionally and one
  // pass suffices regardless of split size.
  std::vector<KV> sample;
  for (size_t s = 0; s < splits.size(); ++s) {
    Random rng(options.seed + 0x9e37 * (s + 1));
    std::vector<KV> reservoir;
    reservoir.reserve(options.sample_per_split);
    std::unique_ptr<RecordSource> source = splits[s].open();
    RecordRef record;
    uint64_t seen = 0;
    while (source->NextRef(&record)) {
      ++seen;
      if (reservoir.size() < options.sample_per_split) {
        reservoir.emplace_back(record);
      } else {
        const uint64_t slot = rng.Uniform(seen);
        if (slot < reservoir.size()) reservoir[slot] = KV(record);
      }
    }
    for (KV& kv : reservoir) sample.push_back(std::move(kv));
  }
  if (sample.empty()) return Status::OK();  // empty pivots: hash fallback

  // Observe the intermediate key distribution by running the job's own
  // Mapper over the sample (one mapper instance, as in one synthetic task).
  std::vector<std::string> keys;
  {
    JobMetrics metrics;
    TaskInfo info;
    info.task_id = 0;
    info.num_reduce_tasks = spec.num_reduce_tasks;
    info.partitioner = spec.partitioner.get();
    info.key_cmp = spec.key_cmp;
    info.grouping_cmp = spec.EffectiveGroupingCmp();
    info.metrics = &metrics;
    KeyCapturingContext ctx(&keys);
    std::unique_ptr<Mapper> mapper = spec.mapper_factory();
    mapper->Setup(info, &ctx);
    for (const KV& kv : sample) mapper->Map(kv.key, kv.value, &ctx);
    mapper->Cleanup(&ctx);
  }
  if (keys.empty()) return Status::OK();

  std::sort(keys.begin(), keys.end());
  model->pivots = QuantilePivots(keys, spec.num_reduce_tasks);

  // Superfrequent keys: run-length over the sorted sample.
  const size_t hot_threshold = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(keys.size()) *
                             options.hot_key_min_fraction));
  for (size_t i = 0; i < keys.size();) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i >= hot_threshold) model->hot_keys.push_back(keys[i]);
    i = j;
  }
  if (model->hot_keys.empty()) {
    model->salted_pivots = model->pivots;
    return Status::OK();
  }

  model->hot_fanout = options.hot_fanout > 0
                          ? options.hot_fanout
                          : std::max(2, spec.num_reduce_tasks);

  // Salted sample: spread each hot key's occurrences round-robin over its
  // variants, then re-derive quantiles — the stage-1 pivots see the salted
  // key space and balance the variants across ranges automatically.
  std::vector<std::string> salted;
  salted.reserve(keys.size());
  uint32_t rr = 0;
  for (const std::string& k : keys) {
    if (IsHotKey(*model, Slice(k))) {
      salted.push_back(SaltKey(Slice(k), rr++ % static_cast<uint32_t>(
                                             model->hot_fanout)));
    } else {
      salted.push_back(k);
    }
  }
  std::sort(salted.begin(), salted.end());
  model->salted_pivots = QuantilePivots(salted, spec.num_reduce_tasks);
  return Status::OK();
}

MapperFactory MakeSaltingMapperFactory(MapperFactory base,
                                       std::shared_ptr<const SkewModel> model) {
  return [base = std::move(base), model = std::move(model)]() {
    return std::make_unique<SaltingMapper>(base(), model);
  };
}

MapperFactory IdentityMapperFactory() {
  return []() { return std::make_unique<IdentityMapper>(); };
}

Status MakeSplitStage1Spec(const JobSpec& base,
                           std::shared_ptr<const SkewModel> model,
                           JobSpec* out) {
  if (model == nullptr || !model->HasHotKeys()) {
    return Status::InvalidArgument("hot-key split: model has no hot keys");
  }
  if (!base.partial_reducer_factory) {
    return Status::InvalidArgument(
        "hot-key split: JobSpec has no partial_reducer_factory (its reducer "
        "output cannot be merged in a fix-up stage)");
  }
  *out = base;
  out->name = base.name + "_split1";
  out->mapper_factory = MakeSaltingMapperFactory(base.mapper_factory, model);
  out->reducer_factory = [partial = base.partial_reducer_factory, model]() {
    return std::make_unique<SaltStrippingReducer>(partial(), model);
  };
  out->partitioner = std::make_shared<RangePartitioner>(model->salted_pivots);
  return Status::OK();
}

Status MakeSplitStage2Spec(const JobSpec& base,
                           std::shared_ptr<const SkewModel> model,
                           JobSpec* out) {
  if (model == nullptr) {
    return Status::InvalidArgument("hot-key split: no skew model");
  }
  *out = base;
  out->name = base.name + "_split2";
  out->mapper_factory = IdentityMapperFactory();
  // Stage-2 input values are stage-1 partials; the original reducer merges
  // them by the partial-reducer contract. No combiner: re-combining partials
  // buys nothing at fix-up scale and would add a format assumption.
  out->combiner_factory = nullptr;
  out->partitioner = std::make_shared<RangePartitioner>(model->pivots);
  return Status::OK();
}

std::string EncodeKeyList(const std::vector<std::string>& keys) {
  std::string out;
  PutVarint64(&out, keys.size());
  for (const std::string& k : keys) PutLengthPrefixed(&out, Slice(k));
  return out;
}

Status DecodeKeyList(const std::string& encoded,
                     std::vector<std::string>* keys) {
  keys->clear();
  Slice in(encoded);
  uint64_t n = 0;
  if (!GetVarint64(&in, &n)) {
    return Status::IOError("malformed key list: count");
  }
  keys->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slice k;
    if (!GetLengthPrefixed(&in, &k)) {
      return Status::IOError("malformed key list: entry");
    }
    keys->push_back(k.ToString());
  }
  return Status::OK();
}

}  // namespace antimr
