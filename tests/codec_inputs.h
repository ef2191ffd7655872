// Seeded codec inputs over five entropy profiles, shared by the codec sweep
// and the golden byte-identity test.
#ifndef ANTIMR_TESTS_CODEC_INPUTS_H_
#define ANTIMR_TESTS_CODEC_INPUTS_H_

#include <string>

#include "common/random.h"

namespace antimr {
namespace testing_codec {

enum class Profile { kRandom, kText, kRuns, kNearlyConstant, kStructured };

inline constexpr Profile kAllProfiles[] = {
    Profile::kRandom, Profile::kText, Profile::kRuns, Profile::kNearlyConstant,
    Profile::kStructured};

inline const char* ProfileName(Profile p) {
  switch (p) {
    case Profile::kRandom:
      return "random";
    case Profile::kText:
      return "text";
    case Profile::kRuns:
      return "runs";
    case Profile::kNearlyConstant:
      return "nearlyconstant";
    case Profile::kStructured:
      return "structured";
  }
  return "?";
}

inline std::string MakeInput(Profile profile, size_t size, uint64_t seed) {
  Random rng(seed);
  std::string s;
  s.reserve(size + 32);
  switch (profile) {
    case Profile::kRandom:
      while (s.size() < size) s.push_back(static_cast<char>(rng.Next()));
      break;
    case Profile::kText: {
      static const char* words[] = {"alpha", "beta", "gamma", "delta",
                                    "epsilon", "zeta", "eta", "theta"};
      while (s.size() < size) {
        s += words[rng.Uniform(8)];
        s.push_back(' ');
      }
      break;
    }
    case Profile::kRuns:
      while (s.size() < size) {
        s.append(1 + rng.Uniform(300), static_cast<char>('a' + rng.Uniform(4)));
      }
      break;
    case Profile::kNearlyConstant:
      s.assign(size, 'x');
      for (size_t i = 0; i < size / 1000 + 1 && !s.empty(); ++i) {
        s[rng.Uniform(s.size())] = static_cast<char>(rng.Next());
      }
      break;
    case Profile::kStructured:
      while (s.size() < size) {
        s += "id=" + std::to_string(rng.Uniform(10000)) +
             ",ts=17000" + std::to_string(rng.Uniform(100000)) + ";";
      }
      break;
  }
  s.resize(size);
  return s;
}

}  // namespace testing_codec
}  // namespace antimr

#endif  // ANTIMR_TESTS_CODEC_INPUTS_H_
