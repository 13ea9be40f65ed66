#ifndef MVROB_COMMON_BITSET_H_
#define MVROB_COMMON_BITSET_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvrob {

/// Dense word-packed bit kernels for the robustness hot path.
///
/// Algorithm 1 spends its time asking set-membership questions over
/// transaction ids ("which Tm ww-conflict with T1?", "do these two
/// component sets intersect?"). Packing those sets 64 ids per word turns
/// the inner candidate scans into a handful of AND/OR/ANDNOT word ops plus
/// a set-bit walk, and the sorted-vector intersections of the pivot cache
/// into word-wise intersection tests.
///
/// Three layers:
///  - ConstBitSpan / BitSpan: non-owning views (word pointer + bit count)
///    carrying the kernels, so rows of a matrix and standalone sets share
///    one implementation;
///  - DenseBitset: an owning, resizable bitset;
///  - BitMatrix: n x m bits in one contiguous allocation with a fixed
///    word stride, whose rows are spans.
///
/// Invariant everywhere: bits at positions >= size() in the last word are
/// zero, so Count/Any/Intersects never need tail masking.

inline constexpr size_t kBitsPerWord = 64;

inline size_t BitWords(size_t bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

class ConstBitSpan {
 public:
  ConstBitSpan() = default;
  ConstBitSpan(const uint64_t* words, size_t bits)
      : words_(words), bits_(bits) {}

  size_t size() const { return bits_; }
  size_t num_words() const { return BitWords(bits_); }
  uint64_t word(size_t w) const { return words_[w]; }
  const uint64_t* data() const { return words_; }

  bool Test(size_t i) const {
    assert(i < bits_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }

  bool Any() const {
    for (size_t w = 0; w < num_words(); ++w) {
      if (words_[w]) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  size_t Count() const {
    size_t count = 0;
    for (size_t w = 0; w < num_words(); ++w) {
      count += static_cast<size_t>(std::popcount(words_[w]));
    }
    return count;
  }

  /// True if this span and `other` share a set bit (word-wise AND test).
  bool Intersects(ConstBitSpan other) const {
    assert(bits_ == other.bits_);
    for (size_t w = 0; w < num_words(); ++w) {
      if (words_[w] & other.words_[w]) return true;
    }
    return false;
  }

  /// Index of the lowest set bit, or size() if none.
  size_t FindFirst() const { return FindNext(0); }

  /// Index of the lowest set bit >= from, or size() if none. Enables
  /// breakable iteration: for (i = s.FindFirst(); i < s.size();
  /// i = s.FindNext(i + 1)).
  size_t FindNext(size_t from) const {
    if (from >= bits_) return bits_;
    size_t w = from / kBitsPerWord;
    uint64_t word = words_[w] & (~uint64_t{0} << (from % kBitsPerWord));
    while (true) {
      if (word) {
        return w * kBitsPerWord + static_cast<size_t>(std::countr_zero(word));
      }
      if (++w >= num_words()) return bits_;
      word = words_[w];
    }
  }

  /// Calls fn(i) for every set bit i in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < num_words(); ++w) {
      uint64_t bits = words_[w];
      while (bits) {
        size_t i =
            w * kBitsPerWord + static_cast<size_t>(std::countr_zero(bits));
        fn(i);
        bits &= bits - 1;  // Clear the lowest set bit.
      }
    }
  }

 private:
  const uint64_t* words_ = nullptr;
  size_t bits_ = 0;
};

class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(uint64_t* words, size_t bits) : words_(words), bits_(bits) {}

  operator ConstBitSpan() const { return ConstBitSpan(words_, bits_); }

  size_t size() const { return bits_; }
  size_t num_words() const { return BitWords(bits_); }
  uint64_t word(size_t w) const { return words_[w]; }
  uint64_t* data() const { return words_; }

  bool Test(size_t i) const { return ConstBitSpan(*this).Test(i); }
  bool Any() const { return ConstBitSpan(*this).Any(); }
  bool None() const { return ConstBitSpan(*this).None(); }
  size_t Count() const { return ConstBitSpan(*this).Count(); }
  bool Intersects(ConstBitSpan other) const {
    return ConstBitSpan(*this).Intersects(other);
  }
  size_t FindFirst() const { return ConstBitSpan(*this).FindFirst(); }
  size_t FindNext(size_t from) const {
    return ConstBitSpan(*this).FindNext(from);
  }
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    ConstBitSpan(*this).ForEachSetBit(static_cast<Fn&&>(fn));
  }

  void Set(size_t i) {
    assert(i < bits_);
    words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
  }
  void Reset(size_t i) {
    assert(i < bits_);
    words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
  }
  void Assign(size_t i, bool value) { value ? Set(i) : Reset(i); }

  void ResetAll() {
    for (size_t w = 0; w < num_words(); ++w) words_[w] = 0;
  }
  void SetAll() {
    for (size_t w = 0; w < num_words(); ++w) words_[w] = ~uint64_t{0};
    ClearTail();
  }
  /// this = ~this (within size()).
  void FlipAll() {
    for (size_t w = 0; w < num_words(); ++w) words_[w] = ~words_[w];
    ClearTail();
  }

  void CopyFrom(ConstBitSpan other) {
    assert(bits_ == other.size());
    for (size_t w = 0; w < num_words(); ++w) words_[w] = other.word(w);
  }
  /// this &= other.
  void AndWith(ConstBitSpan other) {
    assert(bits_ == other.size());
    for (size_t w = 0; w < num_words(); ++w) words_[w] &= other.word(w);
  }
  /// this |= other.
  void OrWith(ConstBitSpan other) {
    assert(bits_ == other.size());
    for (size_t w = 0; w < num_words(); ++w) words_[w] |= other.word(w);
  }
  /// this &= ~other.
  void AndNotWith(ConstBitSpan other) {
    assert(bits_ == other.size());
    for (size_t w = 0; w < num_words(); ++w) words_[w] &= ~other.word(w);
  }

 private:
  void ClearTail() {
    size_t tail = bits_ % kBitsPerWord;
    if (tail != 0 && num_words() > 0) {
      words_[num_words() - 1] &= (uint64_t{1} << tail) - 1;
    }
  }

  uint64_t* words_ = nullptr;
  size_t bits_ = 0;
};

/// An owning bitset over [0, size()).
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t bits, bool value = false) { Resize(bits, value); }

  void Resize(size_t bits, bool value = false) {
    bits_ = bits;
    words_.assign(BitWords(bits), value ? ~uint64_t{0} : 0);
    if (value) span().SetAll();  // Re-masks the tail.
  }

  size_t size() const { return bits_; }
  bool empty() const { return bits_ == 0; }
  size_t num_words() const { return words_.size(); }

  BitSpan span() { return BitSpan(words_.data(), bits_); }
  ConstBitSpan span() const { return ConstBitSpan(words_.data(), bits_); }
  operator BitSpan() { return span(); }
  operator ConstBitSpan() const { return span(); }

  bool Test(size_t i) const { return span().Test(i); }
  void Set(size_t i) { span().Set(i); }
  void Reset(size_t i) { span().Reset(i); }
  void Assign(size_t i, bool value) { span().Assign(i, value); }
  void SetAll() { span().SetAll(); }
  void ResetAll() { span().ResetAll(); }
  bool Any() const { return span().Any(); }
  bool None() const { return span().None(); }
  size_t Count() const { return span().Count(); }
  bool Intersects(ConstBitSpan other) const {
    return span().Intersects(other);
  }
  size_t FindFirst() const { return span().FindFirst(); }
  size_t FindNext(size_t from) const { return span().FindNext(from); }
  void CopyFrom(ConstBitSpan other) { span().CopyFrom(other); }
  void AndWith(ConstBitSpan other) { span().AndWith(other); }
  void OrWith(ConstBitSpan other) { span().OrWith(other); }
  void AndNotWith(ConstBitSpan other) { span().AndNotWith(other); }
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    span().ForEachSetBit(static_cast<Fn&&>(fn));
  }

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// rows() x cols() bits in one contiguous allocation; every row is a span
/// with a shared word stride, so row ops are cache-friendly and free of
/// per-row allocations.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), stride_(BitWords(cols)),
        words_(rows * stride_, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  BitSpan row(size_t r) {
    assert(r < rows_);
    return BitSpan(words_.data() + r * stride_, cols_);
  }
  ConstBitSpan row(size_t r) const {
    assert(r < rows_);
    return ConstBitSpan(words_.data() + r * stride_, cols_);
  }

  bool Test(size_t r, size_t c) const { return row(r).Test(c); }
  void Set(size_t r, size_t c) { row(r).Set(c); }
  void Reset(size_t r, size_t c) { row(r).Reset(c); }
  void Assign(size_t r, size_t c, bool value) { row(r).Assign(c, value); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mvrob

#endif  // MVROB_COMMON_BITSET_H_
