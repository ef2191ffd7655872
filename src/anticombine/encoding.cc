#include "anticombine/encoding.h"

namespace antimr {
namespace anticombine {

void EncodeEagerPayload(std::span<const Slice> other_keys,
                        const Slice& value, std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(Encoding::kEager));
  PutVarint32(out, static_cast<uint32_t>(other_keys.size()));
  for (const Slice& key : other_keys) PutLengthPrefixed(out, key);
  out->append(value.data(), value.size());
}

size_t EagerPayloadSize(std::span<const Slice> other_keys,
                        const Slice& value) {
  size_t size = 1 + static_cast<size_t>(VarintLength(other_keys.size()));
  for (const Slice& key : other_keys) {
    size += static_cast<size_t>(VarintLength(key.size())) + key.size();
  }
  return size + value.size();
}

void EncodeLazyPayload(const Slice& input_key, const Slice& input_value,
                       std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(Encoding::kLazy));
  PutLengthPrefixed(out, input_key);
  out->append(input_value.data(), input_value.size());
}

size_t LazyPayloadSize(const Slice& input_key, const Slice& input_value) {
  return 1 + static_cast<size_t>(VarintLength(input_key.size())) +
         input_key.size() + input_value.size();
}

Status GetEncoding(const Slice& payload, Encoding* encoding, Slice* rest) {
  if (payload.empty()) {
    return Status::Corruption("anti-combining: empty payload");
  }
  const uint8_t flag = static_cast<uint8_t>(payload[0]);
  if (flag > static_cast<uint8_t>(Encoding::kLazy)) {
    return Status::Corruption("anti-combining: bad encoding flag");
  }
  *encoding = static_cast<Encoding>(flag);
  *rest = Slice(payload.data() + 1, payload.size() - 1);
  return Status::OK();
}

Status DecodeEagerPayload(const Slice& rest, std::vector<Slice>* other_keys,
                          Slice* value) {
  Slice in = rest;
  uint32_t n;
  if (!GetVarint32(&in, &n)) {
    return Status::Corruption("anti-combining: bad eager key count");
  }
  other_keys->clear();
  // The count is untrusted: every key takes at least its length byte, so a
  // count above the remaining bytes is corrupt, and is rejected before it
  // sizes anything.
  if (n > in.size()) {
    return Status::Corruption("anti-combining: eager key count exceeds payload");
  }
  other_keys->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice key;
    if (!GetLengthPrefixed(&in, &key)) {
      return Status::Corruption("anti-combining: truncated eager key");
    }
    other_keys->push_back(key);
  }
  *value = in;
  return Status::OK();
}

Status DecodeLazyPayload(const Slice& rest, Slice* input_key,
                         Slice* input_value) {
  Slice in = rest;
  if (!GetLengthPrefixed(&in, input_key)) {
    return Status::Corruption("anti-combining: truncated lazy key");
  }
  *input_value = in;
  return Status::OK();
}

}  // namespace anticombine
}  // namespace antimr
