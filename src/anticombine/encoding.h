// Wire format for Anti-Combining records (paper Sections 3-4, 6.1).
//
// An encoded record's key is the representative key: the minimal key (by the
// job's key comparator) among the original records it stands for. Using the
// minimum guarantees every encoded-away key is >= the representative, so it
// can be decoded into Shared before its own Reduce call runs.
//
// The record's value is a flagged payload:
//
//   EagerSH:  [flag=0] varint(n) {len-prefixed other_key}*n shared_value...
//             Stands for the n+1 records (rep, v), (k_1, v), ..., (k_n, v)
//             that share value v and reduce task. n = 0 is the degenerate
//             "plain" case: the original record plus flag overhead (the
//             paper's Section 7.1 overhead experiment).
//
//   LazySH:   [flag=1] len-prefixed(map_input_key) map_input_value...
//             Stands for *all* original records of one Map call assigned to
//             this reduce task; the reducer re-executes Map + Partition to
//             regenerate them.
//
// Any other flag byte is Corruption: payloads arrive from shuffled segment
// bytes, so the decoders treat them as untrusted.
#ifndef ANTIMR_ANTICOMBINE_ENCODING_H_
#define ANTIMR_ANTICOMBINE_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace antimr {
namespace anticombine {

enum class Encoding : uint8_t {
  kEager = 0,  ///< EagerSH (n = 0 degenerates to flagged-plain)
  kLazy = 1,   ///< LazySH
};

/// Build an EagerSH payload. `other_keys` excludes the representative.
void EncodeEagerPayload(std::span<const Slice> other_keys,
                        const Slice& value, std::string* out);

/// Bytes EncodeEagerPayload would produce, without building it.
size_t EagerPayloadSize(std::span<const Slice> other_keys,
                        const Slice& value);

/// Build a LazySH payload from the original Map *input* record.
void EncodeLazyPayload(const Slice& input_key, const Slice& input_value,
                       std::string* out);

/// Bytes EncodeLazyPayload would produce.
size_t LazyPayloadSize(const Slice& input_key, const Slice& input_value);

/// Read the flag byte; *rest gets the flag-stripped payload. Any flag other
/// than kEager or kLazy is Corruption.
Status GetEncoding(const Slice& payload, Encoding* encoding, Slice* rest);

/// Parse a flag-stripped EagerSH payload. Slices view into `rest`.
Status DecodeEagerPayload(const Slice& rest, std::vector<Slice>* other_keys,
                          Slice* value);

/// Parse a flag-stripped LazySH payload. Slices view into `rest`.
Status DecodeLazyPayload(const Slice& rest, Slice* input_key,
                         Slice* input_value);

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ENCODING_H_
