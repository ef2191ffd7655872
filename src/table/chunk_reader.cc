#include "table/chunk_reader.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "anticombine/encoding.h"
#include "codec/crc32.h"
#include "common/coding.h"
#include "common/stopwatch.h"

namespace antimr {

namespace {

/// Largest header we are willing to allocate for before calling the length
/// field corrupt. Headers are ~40 bytes + two keys.
constexpr uint32_t kMaxHeaderBytes = 1 << 20;

constexpr uint8_t kMaxCodecByte = static_cast<uint8_t>(CodecType::kBzip2Like);

}  // namespace

ChunkReader::ChunkReader(std::unique_ptr<SequentialFile> file, Options options)
    : file_(std::move(file)), opts_(std::move(options)) {}

Status ChunkReader::CorruptionAt(const std::string& detail) const {
  return Status::Corruption("chunk " +
                            (opts_.name.empty() ? "<unnamed>" : opts_.name) +
                            " block " + std::to_string(block_index_) + ": " +
                            detail);
}

void ChunkReader::NotePeak() {
  const uint64_t buffered = readahead_bytes_ + current().key_plain.size() +
                            current().val_plain.size() +
                            current().payload.size();
  if (buffered > stats_.peak_buffered_bytes) {
    stats_.peak_buffered_bytes = buffered;
  }
}

Status ChunkReader::ReadExactDirect(size_t n, std::string* out, bool* at_eof) {
  out->resize(n);
  size_t got = 0;
  while (got < n) {
    Slice chunk;
    ANTIMR_RETURN_NOT_OK(file_->Read(n - got, &chunk, out->data() + got));
    if (chunk.empty()) {
      if (at_eof != nullptr && got == 0) {
        *at_eof = true;
        out->clear();
        return Status::OK();
      }
      return CorruptionAt("truncated block (unexpected end of chunk)");
    }
    // Sources that serve views out of their own storage (SliceSource)
    // ignore the scratch buffer; copy into place then.
    if (chunk.data() != out->data() + got) {
      std::memcpy(out->data() + got, chunk.data(), chunk.size());
    }
    got += chunk.size();
  }
  if (at_eof != nullptr) *at_eof = false;
  return Status::OK();
}

Status ChunkReader::Open() {
  std::string magic;
  {
    ScopedTimer t(&stats_.read_nanos);
    bool at_eof = false;
    Status st = ReadExactDirect(sizeof(kChunkMagic), &magic, &at_eof);
    if (!st.ok() || at_eof) {
      return Status::Corruption(
          "chunk " + (opts_.name.empty() ? "<unnamed>" : opts_.name) +
          ": missing chunk magic");
    }
  }
  stats_.bytes_read += sizeof(kChunkMagic);
  if (Slice(magic) != Slice(kChunkMagic, sizeof(kChunkMagic))) {
    return CorruptionAt("bad magic: not a columnar chunk");
  }
  ANTIMR_RETURN_NOT_OK(FillReadahead());
  return PositionAtRow();
}

Status ChunkReader::FillReadahead() {
  const size_t window = std::max<size_t>(1, opts_.readahead_blocks);
  while (!source_eof_ && readahead_.size() < window) {
    uint64_t frame_read_bytes = 0;
    Frame frame;
    std::string header;
    {
      ScopedTimer t(&stats_.read_nanos);
      std::string len_bytes;
      bool at_eof = false;
      ANTIMR_RETURN_NOT_OK(ReadExactDirect(4, &len_bytes, &at_eof));
      if (at_eof) {
        source_eof_ = true;
        break;
      }
      ++block_index_;
      const uint32_t header_len = DecodeFixed32(len_bytes.data());
      if (header_len < 8 || header_len > kMaxHeaderBytes) {
        return CorruptionAt("implausible header length " +
                            std::to_string(header_len));
      }
      ANTIMR_RETURN_NOT_OK(ReadExactDirect(header_len, &header, nullptr));
      frame_read_bytes += 4 + header_len;
    }

    // The header CRC is the trailing fixed32; verify before trusting any
    // other field.
    {
      ScopedTimer t(&stats_.decode_nanos);
      const uint32_t stored_crc = DecodeFixed32(
          header.data() + header.size() - 4);
      const uint32_t actual_crc =
          Crc32(0, Slice(header.data(), header.size() - 4));
      if (stored_crc != actual_crc) {
        return CorruptionAt("header crc mismatch (stored " +
                            std::to_string(stored_crc) + ", computed " +
                            std::to_string(actual_crc) + ")");
      }
    }
    Slice in(header.data(), header.size() - 4);
    uint8_t key_encoding_byte = 0;
    Slice min_key, max_key;
    auto get_byte = [&in](uint8_t* b) {
      if (in.empty()) return false;
      *b = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      return true;
    };
    uint8_t key_codec_byte = 0;
    uint8_t value_codec_byte = 0;
    if (!GetVarint64(&in, &frame.record_count) || !get_byte(&frame.flags) ||
        !get_byte(&key_encoding_byte) || !get_byte(&key_codec_byte) ||
        !get_byte(&value_codec_byte) ||
        !GetVarint32(&in, &frame.key_raw_len) ||
        !GetVarint32(&in, &frame.key_stored_len) ||
        !GetVarint32(&in, &frame.val_raw_len) ||
        !GetVarint32(&in, &frame.val_stored_len) ||
        !GetLengthPrefixed(&in, &min_key) ||
        !GetLengthPrefixed(&in, &max_key) ||
        !GetFixed32(&in, &frame.payload_crc) || !in.empty()) {
      return CorruptionAt("malformed block header");
    }
    if (frame.record_count == 0) {
      return CorruptionAt("empty block");
    }
    if (key_encoding_byte >
            static_cast<uint8_t>(KeyEncoding::kDictionary) ||
        key_codec_byte > kMaxCodecByte || value_codec_byte > kMaxCodecByte) {
      return CorruptionAt("bad key encoding or codec id");
    }
    frame.key_encoding = static_cast<KeyEncoding>(key_encoding_byte);
    frame.key_codec = static_cast<CodecType>(key_codec_byte);
    frame.value_codec = static_cast<CodecType>(value_codec_byte);

    const uint64_t payload_len =
        static_cast<uint64_t>(frame.key_stored_len) + frame.val_stored_len;
    if (opts_.prune != nullptr &&
        !opts_.prune->Overlaps(min_key, max_key, opts_.prune_cmp)) {
      // Stats miss the range: skip the payload without transferring it.
      // Env Skip() counts no read bytes and pays no simulated bandwidth —
      // that is the pruning win.
      {
        ScopedTimer t(&stats_.read_nanos);
        ANTIMR_RETURN_NOT_OK(file_->Skip(payload_len));
      }
      stats_.bytes_read += frame_read_bytes;
      stats_.blocks_pruned += 1;
      stats_.pruned_bytes += payload_len;
      continue;
    }

    {
      ScopedTimer t(&stats_.read_nanos);
      ANTIMR_RETURN_NOT_OK(ReadExactDirect(static_cast<size_t>(payload_len),
                                           &frame.payload, nullptr));
    }
    frame_read_bytes += payload_len;
    stats_.bytes_read += frame_read_bytes;
    readahead_bytes_ += frame.payload.size();
    readahead_.push_back(std::move(frame));
    NotePeak();
  }
  return Status::OK();
}

Status ChunkReader::DecodeNextBlock() {
  namespace ac = anticombine;
  Frame frame = std::move(readahead_.front());
  readahead_.pop_front();
  readahead_bytes_ -= frame.payload.size();

  // Decode into the slot holding the generation-before-last block, so views
  // into the just-finished block survive this advance (batch contract).
  DecodedBlock& block = blocks_[cur_ ^ 1];
  block.Reset();
  block.payload = std::move(frame.payload);

  ScopedTimer t(&stats_.decode_nanos);
  const uint32_t actual_crc = Crc32(0, block.payload);
  if (actual_crc != frame.payload_crc) {
    valid_ = false;
    return CorruptionAt("payload crc mismatch (stored " +
                        std::to_string(frame.payload_crc) + ", computed " +
                        std::to_string(actual_crc) + ")");
  }
  if (static_cast<uint64_t>(frame.key_stored_len) + frame.val_stored_len !=
      block.payload.size()) {
    valid_ = false;
    return CorruptionAt("column lengths disagree with payload size");
  }
  const Slice key_stored(block.payload.data(), frame.key_stored_len);
  const Slice val_stored(block.payload.data() + frame.key_stored_len,
                         frame.val_stored_len);

  // Per-column decompression (or raw pass-through).
  Slice key_bytes = key_stored;
  if (frame.key_codec != CodecType::kNone) {
    Status st = GetCodec(frame.key_codec)->Decompress(key_stored,
                                                      &block.key_plain);
    if (!st.ok()) {
      valid_ = false;
      return CorruptionAt("key column decompress failed: " + st.message());
    }
    key_bytes = Slice(block.key_plain);
  }
  if (key_bytes.size() != frame.key_raw_len) {
    valid_ = false;
    return CorruptionAt("key column length mismatch (header " +
                        std::to_string(frame.key_raw_len) + ", decoded " +
                        std::to_string(key_bytes.size()) + ")");
  }
  Slice val_bytes = val_stored;
  if (frame.value_codec != CodecType::kNone) {
    Status st = GetCodec(frame.value_codec)->Decompress(val_stored,
                                                        &block.val_plain);
    if (!st.ok()) {
      valid_ = false;
      return CorruptionAt("value column decompress failed: " + st.message());
    }
    val_bytes = Slice(block.val_plain);
  }
  if (val_bytes.size() != frame.val_raw_len) {
    valid_ = false;
    return CorruptionAt("value column length mismatch (header " +
                        std::to_string(frame.val_raw_len) + ", decoded " +
                        std::to_string(val_bytes.size()) + ")");
  }

  // Key column: materialize per-row key views.
  const size_t record_count = static_cast<size_t>(frame.record_count);
  block.rows.resize(record_count);
  if (frame.key_encoding == KeyEncoding::kDictionary) {
    uint32_t dict_size = 0;
    if (!GetVarint32(&key_bytes, &dict_size)) {
      valid_ = false;
      return CorruptionAt("truncated dictionary size");
    }
    block.dict.reserve(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      Slice entry;
      if (!GetLengthPrefixed(&key_bytes, &entry)) {
        valid_ = false;
        return CorruptionAt("truncated dictionary entry");
      }
      block.dict.push_back(entry);
    }
    const char* p = key_bytes.data();
    const char* const end = p + key_bytes.size();
    const Slice* dict_data = block.dict.data();
    const uint32_t bound = static_cast<uint32_t>(block.dict.size());
    RecordRef* rows = block.rows.data();
    for (size_t i = 0; i < record_count; ++i) {
      uint32_t id = 0;
      p = GetVarint32Ptr(p, end, &id);
      if (p == nullptr) {
        valid_ = false;
        return CorruptionAt("truncated key id");
      }
      if (id >= bound) {
        valid_ = false;
        return CorruptionAt("bad dictionary id " + std::to_string(id) +
                            " (dictionary has " +
                            std::to_string(block.dict.size()) + " entries)");
      }
      rows[i].key = dict_data[id];
    }
    if (p != end) {
      valid_ = false;
      return CorruptionAt("trailing bytes after key column");
    }
  } else {
    const char* p = key_bytes.data();
    const char* const end = p + key_bytes.size();
    RecordRef* rows = block.rows.data();
    for (size_t i = 0; i < record_count; ++i) {
      uint32_t len = 0;
      p = GetVarint32Ptr(p, end, &len);
      if (p == nullptr || static_cast<size_t>(end - p) < len) {
        valid_ = false;
        return CorruptionAt("truncated key");
      }
      rows[i].key = Slice(p, len);
      p += len;
    }
    if (p != end) {
      valid_ = false;
      return CorruptionAt("trailing bytes after key column");
    }
  }

  // Value column.
  {
    const char* p = val_bytes.data();
    const char* const end = p + val_bytes.size();
    RecordRef* rows = block.rows.data();
    for (size_t i = 0; i < record_count; ++i) {
      uint32_t len = 0;
      p = GetVarint32Ptr(p, end, &len);
      if (p == nullptr || static_cast<size_t>(end - p) < len) {
        valid_ = false;
        return CorruptionAt("truncated value");
      }
      rows[i].value = Slice(p, len);
      p += len;
    }
    if (p != end) {
      valid_ = false;
      return CorruptionAt("trailing bytes after value column");
    }
  }

  // Rematerialize dictionary-rewritten EagerSH payloads into the standard
  // [flag=0] byte form, so downstream consumers (the AntiReducer above all)
  // see input byte-identical to the row format's.
  if ((frame.flags & kBlockFlagEagerDictRewrite) != 0) {
    if (frame.key_encoding != KeyEncoding::kDictionary) {
      valid_ = false;
      return CorruptionAt("eager-dict rewrite flagged without a dictionary");
    }
    // Dictionary entries sit length-prefixed and contiguous in the key
    // column (parsed just above), so each entry's key-wire form —
    // varint(len) || bytes, exactly what a rematerialized payload carries
    // per key — is the prefix-adjacent byte range. Collect those ranges
    // once so remat copies them verbatim instead of re-encoding per key.
    dict_wire_.clear();
    dict_wire_.reserve(block.dict.size());
    for (const Slice& entry : block.dict) {
      const size_t len = static_cast<size_t>(VarintLength(entry.size()));
      dict_wire_.emplace_back(entry.data() - len, entry.size() + len);
    }
    for (RecordRef& row : block.rows) {
      ac::Encoding enc;
      Slice rest;
      Status st = ac::GetEncoding(row.value, &enc, &rest);
      if (!st.ok()) {
        valid_ = false;
        return CorruptionAt("bad flagged payload: " + st.message());
      }
      if (enc != ac::Encoding::kEagerDict) continue;
      st = ac::RematerializeEagerDictPayload(rest, dict_wire_,
                                             &block.rematerialized,
                                             &row.value);
      if (!st.ok()) {
        valid_ = false;
        return CorruptionAt(st.message());
      }
    }
  }

  cur_ ^= 1;
  row_pos_ = 0;
  ++stats_.blocks;
  NotePeak();
  // Refill the window so the next source read overlaps with decoding.
  return FillReadahead();
}

Status ChunkReader::PositionAtRow() {
  while (row_pos_ >= current().rows.size()) {
    if (readahead_.empty()) {
      valid_ = false;
      return Status::OK();
    }
    ANTIMR_RETURN_NOT_OK(DecodeNextBlock());
  }
  const RecordRef& row = current().rows[row_pos_];
  key_ = row.key;
  value_ = row.value;
  valid_ = true;
  ++stats_.records;
  return Status::OK();
}

Status ChunkReader::Next() {
  ++row_pos_;
  return PositionAtRow();
}

Status ChunkReader::NextBatch(RecordBatch* batch, const BatchOptions& opts) {
  batch->clear();
  if (!valid_) return Status::OK();
  // The decoded block already holds the RecordRef views in order, so a
  // batch is one vector splice — no per-record re-positioning. Rows within
  // a block are sorted (the writer's contract) by the same order any
  // caller-supplied cmp imposes, so a stop_key bound is a search for the
  // first excluded row rather than a per-record check: gallop forward from
  // the cursor, then binary-search the last bracket, costing O(log run)
  // comparisons instead of O(log block) — merged runs are often a handful
  // of records (anti-combined inputs hold each key at most once per
  // stream). The batch never crosses a block boundary, keeping every view
  // in one buffer generation (valid until the decode a later call
  // triggers).
  const std::vector<RecordRef>& rows = current().rows;
  const auto begin = rows.begin() + static_cast<ptrdiff_t>(row_pos_);
  auto end = rows.end();
  if (opts.stop_key != nullptr) {
    const size_t n = static_cast<size_t>(end - begin);
    if (n == 0 || !opts.Admits(begin[0].key)) {
      return Status::OK();  // bound excludes the current row
    }
    size_t last_ok = 0;
    size_t probe = 1;
    while (probe < n && opts.Admits(begin[static_cast<ptrdiff_t>(probe)].key)) {
      last_ok = probe;
      probe <<= 1;
    }
    end = std::partition_point(
        begin + static_cast<ptrdiff_t>(last_ok + 1),
        begin + static_cast<ptrdiff_t>(std::min(probe, n)),
        [&opts](const RecordRef& row) { return opts.Admits(row.key); });
  }
  const size_t take =
      std::min(opts.max_records, static_cast<size_t>(end - begin));
  if (take == 0) return Status::OK();  // bound excludes the current row
  batch->insert(batch->end(), begin, begin + static_cast<ptrdiff_t>(take));
  stats_.records += take - 1;  // positioning already counted the first
  row_pos_ += take;
  return PositionAtRow();
}

Status OpenChunk(Env* env, const std::string& fname,
                 ChunkReader::Options options,
                 std::unique_ptr<ChunkReader>* reader) {
  std::unique_ptr<SequentialFile> file;
  ANTIMR_RETURN_NOT_OK(env->NewSequentialFile(fname, &file));
  if (options.name.empty()) options.name = fname;
  auto r = std::make_unique<ChunkReader>(std::move(file), std::move(options));
  ANTIMR_RETURN_NOT_OK(r->Open());
  *reader = std::move(r);
  return Status::OK();
}

}  // namespace antimr
