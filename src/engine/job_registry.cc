#include "engine/job_registry.h"

#include <cstdlib>
#include <mutex>

namespace antimr {
namespace engine {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, JobBuilder> builders;
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();
  return *r;
}

}  // namespace

void RegisterJobBuilder(const std::string& name, JobBuilder builder) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.builders[name] = std::move(builder);
}

Status BuildRegisteredJob(const std::string& name, const net::JobParams& params,
                          JobSpec* spec) {
  JobBuilder builder;
  {
    Registry& r = GlobalRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.builders.find(name);
    if (it == r.builders.end()) {
      return Status::NotFound("no registered job builder: " + name);
    }
    builder = it->second;
  }
  std::map<std::string, std::string> map;
  for (const auto& [key, value] : params) map[key] = value;
  *spec = JobSpec();
  ANTIMR_RETURN_NOT_OK(builder(map, spec));
  return spec->Validate();
}

Status ParamInt(const std::map<std::string, std::string>& params,
                const std::string& key, int def, int* out) {
  auto it = params.find(key);
  if (it == params.end()) {
    *out = def;
    return Status::OK();
  }
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad int param " + key + "=" + it->second);
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

Status ParamUint64(const std::map<std::string, std::string>& params,
                   const std::string& key, uint64_t def, uint64_t* out) {
  auto it = params.find(key);
  if (it == params.end()) {
    *out = def;
    return Status::OK();
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad uint param " + key + "=" + it->second);
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

Status ParamBool(const std::map<std::string, std::string>& params,
                 const std::string& key, bool def, bool* out) {
  auto it = params.find(key);
  if (it == params.end()) {
    *out = def;
    return Status::OK();
  }
  const std::string& v = it->second;
  if (v == "1" || v == "true") {
    *out = true;
  } else if (v == "0" || v == "false") {
    *out = false;
  } else {
    return Status::InvalidArgument("bad bool param " + key + "=" + v);
  }
  return Status::OK();
}

Status ParamCodec(const std::map<std::string, std::string>& params,
                  const std::string& key, CodecType def, CodecType* out) {
  auto it = params.find(key);
  if (it == params.end()) {
    *out = def;
    return Status::OK();
  }
  const std::string& v = it->second;
  if (v == "none") {
    *out = CodecType::kNone;
  } else if (v == "snappy") {
    *out = CodecType::kSnappyLike;
  } else if (v == "deflate") {
    *out = CodecType::kDeflateLike;
  } else if (v == "gzip") {
    *out = CodecType::kGzip;
  } else if (v == "bzip2") {
    *out = CodecType::kBzip2Like;
  } else {
    return Status::InvalidArgument("bad codec param " + key + "=" + v);
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace antimr
