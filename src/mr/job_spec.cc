#include "mr/job_spec.h"

namespace antimr {

Status JobSpec::Validate() const {
  if (!mapper_factory) {
    return Status::InvalidArgument("JobSpec: mapper_factory is required");
  }
  if (!reducer_factory) {
    return Status::InvalidArgument("JobSpec: reducer_factory is required");
  }
  if (partitioner == nullptr) {
    return Status::InvalidArgument("JobSpec: partitioner is required");
  }
  if (!key_cmp) {
    return Status::InvalidArgument("JobSpec: key_cmp is required");
  }
  if (num_reduce_tasks <= 0) {
    return Status::InvalidArgument("JobSpec: num_reduce_tasks must be > 0");
  }
  ANTIMR_RETURN_NOT_OK(partitioner->ValidatePartitions(num_reduce_tasks));
  if (map_buffer_bytes < 1024) {
    return Status::InvalidArgument("JobSpec: map_buffer_bytes too small");
  }
  if (shuffle_block_bytes < 512) {
    return Status::InvalidArgument("JobSpec: shuffle_block_bytes too small");
  }
  return Status::OK();
}

}  // namespace antimr
