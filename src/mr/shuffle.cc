#include "mr/shuffle.h"

#include <utility>

namespace antimr {

namespace {

/// Position `reader` at its first record and hand it to the caller.
Status OpenReader(std::unique_ptr<BlockRunReader> r,
                  std::unique_ptr<BlockRunReader>* reader) {
  ANTIMR_RETURN_NOT_OK(r->Open());
  *reader = std::move(r);
  return Status::OK();
}

}  // namespace

std::string SegmentFileName(const std::string& job_id, int map_task,
                            int partition) {
  return job_id + "/map_" + std::to_string(map_task) + "_p" +
         std::to_string(partition);
}

std::string RunFileName(const std::string& job_id, int map_task,
                        int partition, int run) {
  return SegmentFileName(job_id, map_task, partition) + "_r" +
         std::to_string(run);
}

Status WriteSegmentWith(Env* env, const std::string& fname,
                        const Codec* codec, size_t block_bytes,
                        const std::function<Status(BlockRunWriter*)>& fill,
                        SegmentWriteResult* out) {
  if (codec == nullptr) codec = GetCodec(CodecType::kNone);
  std::unique_ptr<WritableFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewWritableFile(fname, &file));
  BlockRunWriter writer(std::move(file), codec, {block_bytes});
  ANTIMR_RETURN_NOT_OK(fill(&writer));
  ANTIMR_RETURN_NOT_OK(writer.Finish());
  if (out != nullptr) {
    out->raw_bytes = writer.raw_bytes();
    out->stored_bytes = writer.stored_bytes();
    out->records = writer.record_count();
    out->blocks = writer.block_count();
  }
  return Status::OK();
}

Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const Codec* codec, SegmentWriteResult* out,
                    size_t block_bytes) {
  return WriteSegmentWith(
      env, fname, codec, block_bytes,
      [stream](BlockRunWriter* writer) {
        while (stream->Valid()) {
          ANTIMR_RETURN_NOT_OK(writer->Add(stream->key(), stream->value()));
          ANTIMR_RETURN_NOT_OK(stream->Next());
        }
        return Status::OK();
      },
      out);
}

Status OpenSegmentReader(Env* env, const std::string& fname,
                         const Codec* codec, const SegmentReadOptions& options,
                         std::unique_ptr<BlockRunReader>* reader) {
  std::unique_ptr<SequentialFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewSequentialFile(fname, &file));
  BlockRunReader::Options ropts;
  ropts.readahead_blocks = options.readahead_blocks;
  ropts.name = fname;
  return OpenReader(std::make_unique<BlockRunReader>(std::move(file), codec,
                                                     std::move(ropts)),
                    reader);
}

Status OpenFetchedSegment(const FetchedSegment& segment, const Codec* codec,
                          size_t readahead_blocks,
                          std::unique_ptr<BlockRunReader>* reader) {
  BlockRunReader::Options ropts;
  ropts.readahead_blocks = readahead_blocks;
  ropts.name = segment.file;
  return OpenReader(std::make_unique<BlockRunReader>(Slice(segment.frames),
                                                     codec, std::move(ropts)),
                    reader);
}

}  // namespace antimr
