#include "datagen/qlog.h"

#include <array>

#include "common/random.h"
#include "datagen/format.h"

namespace antimr {

namespace {

// First-letter frequency roughly matching English word-initial letters, so
// the Prefix-1 partitioner sees a realistic skew (as it would on real logs).
constexpr const char* kInitialLetters = "taiso" "wcbph" "fmdre" "lngyu" "vjkqz";

std::string MakeWord(Random* rng, bool initial_skew) {
  static const char* vowels = "aeiou";
  static const char* consonants = "bcdfghjklmnpqrstvwxyz";
  std::string word;
  if (initial_skew) {
    // Favour common initial letters: rank-skewed pick from kInitialLetters.
    const size_t rank = static_cast<size_t>(rng->Skewed(4)) % 25;
    word.push_back(kInitialLetters[rank]);
  } else {
    word.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  const size_t len = 2 + rng->Uniform(7);  // total word length 3..9
  for (size_t i = 0; i < len; ++i) {
    const bool vowel = (i + word.size()) % 2 == 1;
    if (vowel) {
      word.push_back(vowels[rng->Uniform(5)]);
    } else {
      word.push_back(consonants[rng->Uniform(21)]);
    }
  }
  return word;
}

}  // namespace

QLogGenerator::QLogGenerator(const QLogConfig& config) : config_(config) {
  Random rng(config_.seed);
  std::vector<std::string> vocabulary;
  vocabulary.reserve(config_.vocabulary_words);
  for (uint64_t i = 0; i < config_.vocabulary_words; ++i) {
    vocabulary.push_back(MakeWord(&rng, /*initial_skew=*/true));
  }
  // Word popularity inside queries is itself skewed, so prefixes collide the
  // way they do in real logs.
  ZipfSampler word_sampler(vocabulary.size(), 0.8);
  queries_.reserve(config_.num_distinct);
  for (uint64_t i = 0; i < config_.num_distinct; ++i) {
    const uint64_t words = 2 + rng.Uniform(3);  // 2..4 words, ~19 chars mean
    std::string query;
    for (uint64_t w = 0; w < words; ++w) {
      if (w > 0) query.push_back(' ');
      query += vocabulary[word_sampler.Sample(&rng)];
    }
    queries_.push_back(std::move(query));
  }
}

std::vector<KV> QLogGenerator::Generate() const {
  std::vector<KV> records;
  records.reserve(config_.num_records);
  Random rng(config_.seed + 1);
  ZipfSampler query_sampler(queries_.size(), config_.popularity_skew);
  // Reused field buffers: the only strings built per record are the two the
  // KV must own.
  std::string key;
  std::string value;
  for (uint64_t i = 0; i < config_.num_records; ++i) {
    const std::string& query = queries_[query_sampler.Sample(&rng)];
    value.assign(query);
    if (config_.include_features) {
      value.push_back('\t');
      AppendDecimal(&value, uint64_t{1} + rng.Uniform(1000));
      value.push_back('\t');
      AppendDecimal(&value, uint64_t{rng.Uniform(50)});
    }
    key.clear();
    key.push_back('u');
    AppendDecimal(&key, uint64_t{rng.Uniform(100000)});
    records.emplace_back(key, value);
  }
  return records;
}

std::vector<InputSplit> QLogGenerator::MakeSplits(int num_splits) const {
  return ::antimr::MakeSplits(Generate(), num_splits);
}

double QLogGenerator::MeanQueryLength() const {
  if (queries_.empty()) return 0.0;
  // Weighted by Zipf popularity would be exact; the unweighted mean is close
  // enough for the sanity check.
  uint64_t total = 0;
  for (const std::string& q : queries_) total += q.size();
  return static_cast<double>(total) / static_cast<double>(queries_.size());
}

}  // namespace antimr
