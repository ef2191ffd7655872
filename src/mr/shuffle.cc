#include "mr/shuffle.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "io/buffered_io.h"
#include "table/chunk_reader.h"
#include "table/chunk_writer.h"

namespace antimr {

namespace {

/// Replays bytes already consumed for format detection, then hands off to
/// the underlying file. The magic bytes are charged to the Env exactly once
/// (at the peek); re-serving them from memory is free.
class PrefixedSequentialFile : public SequentialFile {
 public:
  PrefixedSequentialFile(std::string prefix,
                         std::unique_ptr<SequentialFile> rest)
      : prefix_(std::move(prefix)), rest_(std::move(rest)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (pos_ < prefix_.size()) {
      n = std::min(n, prefix_.size() - pos_);
      *result = Slice(prefix_.data() + pos_, n);
      pos_ += n;
      return Status::OK();
    }
    return rest_->Read(n, result, scratch);
  }

  Status Skip(uint64_t n) override {
    if (pos_ < prefix_.size()) {
      const uint64_t from_prefix =
          std::min<uint64_t>(n, prefix_.size() - pos_);
      pos_ += static_cast<size_t>(from_prefix);
      n -= from_prefix;
      if (n == 0) return Status::OK();
    }
    return rest_->Skip(n);
  }

 private:
  std::string prefix_;
  size_t pos_ = 0;
  std::unique_ptr<SequentialFile> rest_;
};

/// Read up to 4 magic bytes from `file` (fewer only at EOF).
Status PeekMagic(SequentialFile* file, std::string* magic) {
  magic->clear();
  char scratch[4];
  while (magic->size() < 4) {
    Slice chunk;
    ANTIMR_RETURN_NOT_OK(file->Read(4 - magic->size(), &chunk, scratch));
    if (chunk.empty()) break;
    magic->append(chunk.data(), chunk.size());
  }
  return Status::OK();
}

bool IsChunkMagic(const Slice& bytes) {
  return bytes.size() >= sizeof(kChunkMagic) &&
         std::memcmp(bytes.data(), kChunkMagic, sizeof(kChunkMagic)) == 0;
}

Status DrainIntoRowWriter(KVStream* stream, BlockRunWriter* writer) {
  RecordBatch batch;
  const BatchOptions opts;
  while (true) {
    ANTIMR_RETURN_NOT_OK(stream->NextBatch(&batch, opts));
    if (batch.empty()) break;
    for (const RecordRef& r : batch) {
      ANTIMR_RETURN_NOT_OK(writer->Add(r.key, r.value));
    }
  }
  return Status::OK();
}

Status DrainIntoChunkWriter(KVStream* stream, ChunkWriter* writer) {
  RecordBatch batch;
  const BatchOptions opts;
  while (true) {
    ANTIMR_RETURN_NOT_OK(stream->NextBatch(&batch, opts));
    if (batch.empty()) break;
    ANTIMR_RETURN_NOT_OK(writer->AppendBatch(batch));
  }
  return Status::OK();
}

}  // namespace

std::string SegmentFileName(const std::string& job_id, int map_task,
                            int partition) {
  return job_id + "/map_" + std::to_string(map_task) + "_p" +
         std::to_string(partition);
}

std::string SpillFileName(const std::string& job_id, int map_task, int spill,
                          int partition) {
  return job_id + "/map_" + std::to_string(map_task) + "_spill_" +
         std::to_string(spill) + "_p" + std::to_string(partition);
}

Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const SegmentWriteOptions& options,
                    uint64_t* compress_nanos, SegmentWriteResult* out) {
  const Codec* codec =
      options.codec != nullptr ? options.codec : GetCodec(CodecType::kNone);
  std::unique_ptr<WritableFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewWritableFile(fname, &file));
  if (options.format == RecordFormat::kColumnar) {
    ChunkWriter::Options wopts;
    wopts.block_bytes = options.block_bytes;
    wopts.codec = codec->type();
    wopts.rewrite_eager_payloads = options.rewrite_eager_payloads;
    wopts.assume_stable_inputs = options.stable_input;
    ChunkWriter writer(std::move(file), wopts);
    ANTIMR_RETURN_NOT_OK(DrainIntoChunkWriter(stream, &writer));
    ANTIMR_RETURN_NOT_OK(writer.Finish());
    if (compress_nanos != nullptr) *compress_nanos += writer.compress_nanos();
    if (out != nullptr) {
      out->raw_bytes = writer.raw_bytes();
      out->stored_bytes = writer.stored_bytes();
      out->records = writer.record_count();
      out->blocks = writer.block_count();
      out->dict_blocks = writer.dict_blocks();
      out->payload_rewrites = writer.payload_rewrites();
    }
    return Status::OK();
  }
  BlockRunWriter writer(std::move(file), codec, {options.block_bytes});
  ANTIMR_RETURN_NOT_OK(DrainIntoRowWriter(stream, &writer));
  ANTIMR_RETURN_NOT_OK(writer.Finish());
  if (compress_nanos != nullptr) *compress_nanos += writer.compress_nanos();
  if (out != nullptr) {
    out->raw_bytes = writer.raw_bytes();
    out->stored_bytes = writer.stored_bytes();
    out->records = writer.record_count();
    out->blocks = writer.block_count();
  }
  return Status::OK();
}

Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const Codec* codec, uint64_t* compress_nanos,
                    SegmentWriteResult* out, size_t block_bytes) {
  SegmentWriteOptions options;
  options.codec = codec;
  options.block_bytes = block_bytes;
  return WriteSegment(env, fname, stream, options, compress_nanos, out);
}

Status OpenSegmentReader(Env* env, const std::string& fname,
                         const Codec* codec, const SegmentReadOptions& options,
                         std::unique_ptr<SegmentStream>* reader) {
  std::unique_ptr<SequentialFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewSequentialFile(fname, &file));
  std::string magic;
  ANTIMR_RETURN_NOT_OK(PeekMagic(file.get(), &magic));
  const bool columnar = IsChunkMagic(magic);
  auto replay = std::make_unique<PrefixedSequentialFile>(std::move(magic),
                                                         std::move(file));
  if (columnar) {
    ChunkReader::Options ropts;
    ropts.readahead_blocks = options.readahead_blocks;
    ropts.name = fname;
    ropts.prune = options.prune;
    ropts.prune_cmp = options.prune_cmp;
    auto r =
        std::make_unique<ChunkReader>(std::move(replay), std::move(ropts));
    ANTIMR_RETURN_NOT_OK(r->Open());
    *reader = std::move(r);
    return Status::OK();
  }
  BlockRunReader::Options ropts;
  ropts.readahead_blocks = options.readahead_blocks;
  ropts.name = fname;
  auto r = std::make_unique<BlockRunReader>(std::move(replay), codec,
                                            std::move(ropts));
  ANTIMR_RETURN_NOT_OK(r->Open());
  *reader = std::move(r);
  return Status::OK();
}

Status OpenFetchedSegment(const FetchedSegment& segment, const Codec* codec,
                          size_t readahead_blocks,
                          std::unique_ptr<SegmentStream>* reader,
                          const KeyRange* prune, KeyComparator prune_cmp) {
  if (IsChunkMagic(segment.frames)) {
    ChunkReader::Options ropts;
    ropts.readahead_blocks = readahead_blocks;
    ropts.name = segment.file;
    ropts.prune = prune;
    ropts.prune_cmp = std::move(prune_cmp);
    auto r = std::make_unique<ChunkReader>(NewSliceSource(segment.frames),
                                           std::move(ropts));
    ANTIMR_RETURN_NOT_OK(r->Open());
    *reader = std::move(r);
    return Status::OK();
  }
  BlockRunReader::Options ropts;
  ropts.readahead_blocks = readahead_blocks;
  ropts.name = segment.file;
  auto r = std::make_unique<BlockRunReader>(NewSliceSource(segment.frames),
                                            codec, std::move(ropts));
  ANTIMR_RETURN_NOT_OK(r->Open());
  *reader = std::move(r);
  return Status::OK();
}

}  // namespace antimr
