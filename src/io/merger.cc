#include "io/merger.h"

namespace antimr {

int BytewiseCompare(const Slice& a, const Slice& b) { return a.compare(b); }

KeyOrder::KeyOrder(KeyComparator cmp) : cmp_(std::move(cmp)) {
  if (const auto* target =
          cmp_.target<int (*)(const Slice&, const Slice&)>()) {
    bytewise_ = *target == &BytewiseCompare;
  }
}

MergingStream::MergingStream(std::vector<std::unique_ptr<KVStream>> inputs,
                             KeyComparator cmp)
    : inputs_(std::move(inputs)), order_(std::move(cmp)) {
  InitHeap();
}

void MergingStream::InitHeap() {
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

}  // namespace antimr
