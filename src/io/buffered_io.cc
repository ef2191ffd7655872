#include "io/buffered_io.h"

namespace antimr {

BufferedWriter::BufferedWriter(std::unique_ptr<WritableFile> file,
                               size_t buffer_size)
    : file_(std::move(file)), buffer_size_(buffer_size) {
  buffer_.reserve(buffer_size_);
}

BufferedWriter::~BufferedWriter() {
  if (!closed_) Close();
}

Status BufferedWriter::Append(const Slice& data) {
  bytes_written_ += data.size();
  if (buffer_.size() + data.size() < buffer_size_) {
    buffer_.append(data.data(), data.size());
    return Status::OK();
  }
  ANTIMR_RETURN_NOT_OK(FlushBuffer());
  if (data.size() >= buffer_size_) {
    return file_->Append(data);
  }
  buffer_.append(data.data(), data.size());
  return Status::OK();
}

Status BufferedWriter::AppendVarint32(uint32_t v) {
  std::string tmp;
  PutVarint32(&tmp, v);
  return Append(tmp);
}

Status BufferedWriter::AppendVarint64(uint64_t v) {
  std::string tmp;
  PutVarint64(&tmp, v);
  return Append(tmp);
}

Status BufferedWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  ANTIMR_RETURN_NOT_OK(FlushBuffer());
  return file_->Close();
}

Status BufferedWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  Status st = file_->Append(buffer_);
  buffer_.clear();
  return st;
}

BufferedReader::BufferedReader(std::unique_ptr<SequentialFile> file,
                               size_t buffer_size)
    : file_(std::move(file)) {
  scratch_.resize(buffer_size);
}

bool BufferedReader::Fill() {
  if (!avail_.empty()) return true;
  if (eof_) return false;
  Slice result;
  Status st = file_->Read(scratch_.size(), &result, scratch_.data());
  if (!st.ok() || result.empty()) {
    eof_ = true;
    return false;
  }
  avail_ = result;
  return true;
}

bool BufferedReader::AtEof() { return !Fill(); }

Status BufferedReader::ReadByte(unsigned char* b) {
  if (!Fill()) return Status::Corruption("unexpected EOF");
  *b = static_cast<unsigned char>(avail_[0]);
  avail_.RemovePrefix(1);
  ++bytes_consumed_;
  return Status::OK();
}

Status BufferedReader::ReadVarint32(uint32_t* v) {
  uint64_t v64;
  ANTIMR_RETURN_NOT_OK(ReadVarint64(&v64));
  if (v64 > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(v64);
  return Status::OK();
}

Status BufferedReader::ReadVarint64(uint64_t* v) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63; shift += 7) {
    unsigned char byte;
    ANTIMR_RETURN_NOT_OK(ReadByte(&byte));
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    } else {
      result |= static_cast<uint64_t>(byte) << shift;
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
}

Status BufferedReader::ReadExact(size_t n, std::string* out) {
  out->clear();
  out->reserve(n);
  while (out->size() < n) {
    if (!Fill()) return Status::Corruption("unexpected EOF in ReadExact");
    const size_t want = n - out->size();
    const size_t take = want < avail_.size() ? want : avail_.size();
    out->append(avail_.data(), take);
    avail_.RemovePrefix(take);
    bytes_consumed_ += take;
  }
  return Status::OK();
}

}  // namespace antimr
