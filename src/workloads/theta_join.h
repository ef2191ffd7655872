// 1-Bucket-Theta join (Okcan & Riedewald, SIGMOD 2011 [19]), the paper's
// Section 7.7.3 workload. The |S| x |T| join matrix is tiled into a
// rows x cols grid of regions; each record is assigned a deterministic
// pseudo-random matrix row (as S) and column (as T) and replicated to every
// region covering that row or column, so each candidate pair meets in
// exactly one region. Replication factor ~= rows + cols, the paper's 67x.
//
// The band-join query reproduced here (on the Cloud data):
//   SELECT ... FROM Cloud S, Cloud T
//   WHERE S.date = T.date AND S.longitude = T.longitude
//     AND ABS(S.latitude - T.latitude) <= 10
#ifndef ANTIMR_WORKLOADS_THETA_JOIN_H_
#define ANTIMR_WORKLOADS_THETA_JOIN_H_

#include <cstddef>

#include "mr/job_spec.h"

namespace antimr {
namespace workloads {

struct ThetaJoinConfig {
  /// Join-matrix grid. rows + cols is the replication factor; the paper's
  /// memory-aware sizing picked ~34 x 34 (replication 67) on its cluster.
  int grid_rows = 8;
  int grid_cols = 8;
  int latitude_band = 10;  ///< |S.lat - T.lat| <= band
  int num_reduce_tasks = 8;
  CodecType codec = CodecType::kNone;
  size_t map_buffer_bytes = 2 * 1024 * 1024;
  uint64_t salt = 0x7e7a;  ///< seeds the deterministic row/column draw
};

/// Build the self-join job over CloudGenerator records. The mapper's random
/// row/column assignment is derived by hashing the record, so Map is
/// deterministic and LazySH-compatible (re-execution yields identical
/// assignments).
JobSpec MakeThetaJoinJob(const ThetaJoinConfig& config);

/// Bytes of the longest region key: 'g' plus the ten digits of INT_MAX.
constexpr size_t kMaxRegionKeyBytes = 11;

/// Write the shuffle key of region `region` (>= 0) into `buf`, which holds
/// at least kMaxRegionKeyBytes, and return its length. The key is 'g' plus
/// the id zero-padded to six digits, byte-equal to printf's "g%06d", so
/// keys sort by region id up to 999 999.
size_t FormatRegionKey(int region, char* buf);

/// Pick a memory-aware square grid: the largest rows = cols such that the
/// expected records per region fit `region_memory_records` (the analog of
/// the paper's "data chunks just small enough to be joined in memory").
void SizeGridForMemory(uint64_t input_records, uint64_t region_memory_records,
                       int* rows, int* cols);

}  // namespace workloads
}  // namespace antimr

#endif  // ANTIMR_WORKLOADS_THETA_JOIN_H_
