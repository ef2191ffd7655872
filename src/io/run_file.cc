#include "io/run_file.h"

#include <algorithm>

#include "codec/crc32.h"
#include "common/coding.h"
#include "common/stopwatch.h"

namespace antimr {

namespace {

/// First bytes of every block-framed run: "AntiMR Block Segment v1".
constexpr char kBlockMagic[4] = {'A', 'B', 'S', '1'};

class SliceSource : public SequentialFile {
 public:
  explicit SliceSource(const Slice& data) : data_(data) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    (void)scratch;  // served directly out of the borrowed buffer
    n = std::min(n, data_.size() - pos_);
    *result = Slice(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ = std::min(data_.size(), pos_ + static_cast<size_t>(n));
    return Status::OK();
  }

 private:
  Slice data_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<SequentialFile> NewSliceSource(const Slice& data) {
  return std::make_unique<SliceSource>(data);
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* out) {
  std::unique_ptr<SequentialFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewSequentialFile(fname, &file));
  out->clear();
  uint64_t size = 0;
  if (env->GetFileSize(fname, &size).ok()) out->reserve(size);
  char scratch[64 * 1024];
  while (true) {
    Slice chunk;
    ANTIMR_RETURN_NOT_OK(file->Read(sizeof(scratch), &chunk, scratch));
    if (chunk.empty()) break;
    out->append(chunk.data(), chunk.size());
  }
  return Status::OK();
}

BlockRunWriter::BlockRunWriter(std::unique_ptr<WritableFile> file,
                               const Codec* codec, Options options)
    : writer_(std::move(file)),
      codec_(codec),
      block_bytes_(options.block_bytes == 0 ? kDefaultBlockBytes
                                            : options.block_bytes) {
  block_.reserve(block_bytes_);
}

Status BlockRunWriter::EnsureMagic() {
  if (wrote_magic_) return Status::OK();
  wrote_magic_ = true;
  return writer_.Append(Slice(kBlockMagic, sizeof(kBlockMagic)));
}

Status BlockRunWriter::Add(const Slice& key, const Slice& value) {
  PutLengthPrefixed(&block_, key);
  PutLengthPrefixed(&block_, value);
  ++record_count_;
  if (block_.size() >= block_bytes_) {
    ANTIMR_RETURN_NOT_OK(FlushBlock());
  }
  return Status::OK();
}

Status BlockRunWriter::FlushBlock() {
  if (block_.empty()) return Status::OK();
  ANTIMR_RETURN_NOT_OK(EnsureMagic());
  // Uncompressed blocks are framed as they are, without a copy.
  Slice stored(block_);
  if (codec_->type() != CodecType::kNone) {
    ScopedPhase phase(Phase::compress);
    ANTIMR_RETURN_NOT_OK(codec_->Compress(block_, &compressed_));
    stored = Slice(compressed_);
  }
  const uint32_t crc = Crc32(0, stored);
  ANTIMR_RETURN_NOT_OK(
      writer_.AppendVarint32(static_cast<uint32_t>(block_.size())));
  ANTIMR_RETURN_NOT_OK(
      writer_.AppendVarint32(static_cast<uint32_t>(stored.size())));
  std::string crc_buf;
  PutFixed32(&crc_buf, crc);
  ANTIMR_RETURN_NOT_OK(writer_.Append(crc_buf));
  ANTIMR_RETURN_NOT_OK(writer_.Append(stored));
  raw_bytes_ += block_.size();
  ++block_count_;
  block_.clear();
  return Status::OK();
}

Status BlockRunWriter::Finish() {
  ANTIMR_RETURN_NOT_OK(EnsureMagic());
  ANTIMR_RETURN_NOT_OK(FlushBlock());
  return writer_.Close();
}

BlockRunReader::BlockRunReader(std::unique_ptr<SequentialFile> file,
                               const Codec* codec, Options options)
    : file_(std::make_unique<BufferedReader>(std::move(file))),
      codec_(codec),
      opts_(std::move(options)) {}

BlockRunReader::BlockRunReader(const Slice& frames, const Codec* codec,
                               Options options)
    : in_place_(frames),
      in_place_size_(frames.size()),
      codec_(codec),
      opts_(std::move(options)) {}

std::string BlockRunReader::Where(uint64_t block) const {
  return "segment " + (opts_.name.empty() ? "<unnamed>" : opts_.name) +
         " block " + std::to_string(block) + ": ";
}

Status BlockRunReader::CorruptionAt(const std::string& detail) const {
  return Status::Corruption(Where(block_index_) + detail);
}

void BlockRunReader::NotePeak() {
  const uint64_t buffered = readahead_bytes_ + block_.size();
  if (buffered > stats_.peak_buffered_bytes) {
    stats_.peak_buffered_bytes = buffered;
  }
}

bool BlockRunReader::SourceAtEof() {
  return file_ != nullptr ? file_->AtEof() : in_place_.empty();
}

uint64_t BlockRunReader::SourceConsumed() const {
  return file_ != nullptr ? file_->bytes_consumed()
                          : in_place_size_ - in_place_.size();
}

Status BlockRunReader::ReadMagic(std::string* magic) {
  if (file_ != nullptr) {
    return file_->ReadExact(sizeof(kBlockMagic), magic);
  }
  if (in_place_.size() < sizeof(kBlockMagic)) {
    return Status::Corruption("unexpected EOF");
  }
  magic->assign(in_place_.data(), sizeof(kBlockMagic));
  in_place_.RemovePrefix(sizeof(kBlockMagic));
  return Status::OK();
}

Status BlockRunReader::Open() {
  const uint64_t before = SourceConsumed();
  std::string magic;
  const Status st = ReadMagic(&magic);
  if (!st.ok()) {
    return Status::Corruption("segment " +
                              (opts_.name.empty() ? "<unnamed>" : opts_.name) +
                              ": missing block-segment magic (" +
                              st.message() + ")");
  }
  stats_.bytes_read += SourceConsumed() - before;
  if (Slice(magic) != Slice(kBlockMagic, sizeof(kBlockMagic))) {
    return CorruptionAt("bad magic: not a block segment");
  }
  ANTIMR_RETURN_NOT_OK(FillReadahead());
  return Next();
}

Status BlockRunReader::FillReadahead() {
  while (!source_eof_ && readahead_.size() < std::max<size_t>(1, opts_.readahead_blocks)) {
    if (SourceAtEof()) {
      source_eof_ = true;
      break;
    }
    const uint64_t before = SourceConsumed();
    // Filled where it lands: deque growth never moves an element, so a
    // payload view into the frame's own copy stays valid until it pops.
    Frame& frame = readahead_.emplace_back();
    const Status st = ReadFrame(&frame);
    if (!st.ok()) {
      readahead_.pop_back();
      // The frame being read sits just past the queued window.
      return Status(st.code(),
                    Where(block_index_ + readahead_.size() + 1) + st.message());
    }
    stats_.bytes_read += SourceConsumed() - before;
    readahead_bytes_ += frame.payload.size();
    NotePeak();
  }
  return Status::OK();
}

Status BlockRunReader::ReadFrame(Frame* frame) {
  uint32_t stored_len = 0;
  if (file_ == nullptr) {
    if (!GetVarint32(&in_place_, &frame->raw_len) ||
        !GetVarint32(&in_place_, &stored_len) ||
        !GetFixed32(&in_place_, &frame->crc) ||
        in_place_.size() < stored_len) {
      return Status::Corruption("truncated frame");
    }
    frame->payload = Slice(in_place_.data(), stored_len);
    in_place_.RemovePrefix(stored_len);
    return Status::OK();
  }
  ANTIMR_RETURN_NOT_OK(file_->ReadVarint32(&frame->raw_len));
  ANTIMR_RETURN_NOT_OK(file_->ReadVarint32(&stored_len));
  std::string crc_bytes;
  ANTIMR_RETURN_NOT_OK(file_->ReadExact(4, &crc_bytes));
  frame->crc = DecodeFixed32(crc_bytes.data());
  ANTIMR_RETURN_NOT_OK(file_->ReadExact(stored_len, &frame->owned));
  frame->payload = Slice(frame->owned);
  return Status::OK();
}

Status BlockRunReader::DecodeNextBlock() {
  Frame& frame = readahead_.front();
  ++block_index_;
  {
    ScopedPhase phase(Phase::decompress);
    const uint32_t actual = Crc32(0, frame.payload);
    if (actual != frame.crc) {
      valid_ = false;
      return CorruptionAt("crc mismatch (stored " + std::to_string(frame.crc) +
                          ", computed " + std::to_string(actual) + ")");
    }
    if (codec_->type() == CodecType::kNone) {
      // Uncompressed: the payload is the block. In place it is a view; from
      // a file, the frame's own copy moves into block_buf_.
      if (file_ == nullptr) {
        block_ = frame.payload;
      } else {
        block_buf_.swap(frame.owned);
        block_ = Slice(block_buf_);
      }
    } else {
      Status st = codec_->Decompress(frame.payload, &block_buf_);
      if (!st.ok()) {
        valid_ = false;
        return CorruptionAt("decompress failed: " + st.message());
      }
      block_ = Slice(block_buf_);
    }
    if (block_.size() != frame.raw_len) {
      valid_ = false;
      return CorruptionAt("raw length mismatch (header " +
                          std::to_string(frame.raw_len) + ", decoded " +
                          std::to_string(block_.size()) + ")");
    }
  }
  readahead_bytes_ -= frame.payload.size();
  readahead_.pop_front();
  pos_ = 0;
  ++stats_.blocks;
  NotePeak();
  // Refill the window so the next source read overlaps with decoding.
  return FillReadahead();
}

Status BlockRunReader::Next() {
  while (pos_ >= block_.size()) {
    if (readahead_.empty()) {
      valid_ = false;
      return Status::OK();
    }
    ANTIMR_RETURN_NOT_OK(DecodeNextBlock());
  }
  Slice in(block_.data() + pos_, block_.size() - pos_);
  Slice k, v;
  if (!GetLengthPrefixed(&in, &k) || !GetLengthPrefixed(&in, &v)) {
    valid_ = false;
    return CorruptionAt("truncated record");
  }
  key_ = k;
  value_ = v;
  pos_ = block_.size() - in.size();
  ++stats_.records;
  valid_ = true;
  return Status::OK();
}

}  // namespace antimr
