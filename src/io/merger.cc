#include "io/merger.h"

namespace antimr {

int BytewiseCompare(const Slice& a, const Slice& b) { return a.compare(b); }

KeyOrder::KeyOrder(KeyComparator cmp) : cmp_(std::move(cmp)) {
  if (const auto* target =
          cmp_.target<int (*)(const Slice&, const Slice&)>()) {
    raw_ = *target;
    bytewise_ = raw_ == &BytewiseCompare;
  }
}

MergingStream::MergingStream(std::vector<std::unique_ptr<KVStream>> inputs,
                             KeyComparator cmp)
    : inputs_(std::move(inputs)), order_(std::move(cmp)) {
  eager_inputs_ = true;
  for (const auto& input : inputs_) {
    if (!input->SupportsEagerBatches()) {
      eager_inputs_ = false;
      break;
    }
  }
  InitHeap();
}

void MergingStream::InitHeap() {
  drained_in_.assign(inputs_.size(), 0);
  if (eager_inputs_) run_.reserve(kDefaultBatchRecords);
  heap_.clear();
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i]->Valid()) heap_.push_back(static_cast<int>(i));
  }
  if (heap_.empty()) {
    current_ = -1;
    return;
  }
  for (size_t i = heap_.size(); i-- > 0;) SiftDown(i);
  current_ = heap_[0];
}

bool MergingStream::HeapLess(int a, int b) const {
  const Slice ka = inputs_[a]->key();
  const Slice kb = inputs_[b]->key();
  const int c = order_(ka, kb);
  if (c != 0) return c < 0;
  return a < b;  // stability tie-break
}

void MergingStream::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    const size_t l = 2 * i + 1;
    const size_t r = 2 * i + 2;
    size_t smallest = i;
    if (l < n && HeapLess(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && HeapLess(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) break;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

Status MergingStream::Next() {
  if (current_ < 0) return Status::OK();
  KVStream* top = inputs_[heap_[0]].get();
  ANTIMR_RETURN_NOT_OK(top->Next());
  if (!top->Valid()) {
    heap_[0] = heap_.back();
    heap_.pop_back();
  }
  if (heap_.empty()) {
    current_ = -1;
    return Status::OK();
  }
  SiftDown(0);
  current_ = heap_[0];
  return Status::OK();
}

Status MergingStream::NextBatch(RecordBatch* batch, const BatchOptions& opts) {
  if (!eager_inputs_) return KVStream::NextBatch(batch, opts);
  batch->clear();
  if (current_ < 0 || opts.max_records == 0 || !opts.Admits(key())) {
    return Status::OK();
  }

  // Multi-run batch: keep draining the current winner until a stream would
  // have to produce twice. Views from a stream die at its next call
  // (record_batch.h), so each input contributes at most one run per merged
  // batch; that run is bounded by the second-best head exactly as the
  // record-wise merge would bound it, so concatenated runs reproduce the
  // record-wise output byte for byte. When runs are short (anti-combined
  // segments hold each key once per input), this still packs one record per
  // input into the batch instead of degrading to one record per call.
  ++drain_gen_;
  while (current_ >= 0 && batch->size() < opts.max_records &&
         opts.Admits(key())) {
    const int winner = heap_[0];
    if (drained_in_[winner] == drain_gen_) break;  // earlier views must live
    drained_in_[winner] = drain_gen_;

    // The winner may emit every record strictly below the second-best head
    // (including equals when the winner is the lower-indexed input — the
    // same tie-break HeapLess applies) without changing merge order.
    BatchOptions inner;
    inner.max_records = opts.max_records - batch->size();
    inner.cmp = &order_.comparator();
    inner.raw_cmp = order_.raw();
    Slice second_key;
    if (heap_.size() >= 2) {
      int second = heap_[1];
      if (heap_.size() >= 3 && HeapLess(heap_[2], second)) second = heap_[2];
      second_key = inputs_[second]->key();
      inner.stop_key = &second_key;
      inner.take_equal = winner < second;
    }
    // Tighten by the caller's bound, if any.
    if (opts.stop_key != nullptr) {
      if (inner.stop_key == nullptr) {
        inner.stop_key = opts.stop_key;
        inner.take_equal = opts.take_equal;
      } else {
        const int c = order_(*opts.stop_key, *inner.stop_key);
        if (c < 0 || (c == 0 && !opts.take_equal)) {
          inner.stop_key = opts.stop_key;
          inner.take_equal = opts.take_equal;
        }
      }
    }

    KVStream* win = inputs_[winner].get();
    ANTIMR_RETURN_NOT_OK(win->NextBatch(&run_, inner));
    batch->insert(batch->end(), run_.begin(), run_.end());
    // Fix the heap exactly as Next() would after advancing the top stream.
    if (!win->Valid()) {
      heap_[0] = heap_.back();
      heap_.pop_back();
    }
    if (heap_.empty()) {
      current_ = -1;
      break;
    }
    SiftDown(0);
    current_ = heap_[0];
    if (run_.empty()) break;  // defensive: a valid winner always yields
  }
  return Status::OK();
}

}  // namespace antimr
