// Packed bit-array used for the F-COO bit-flag (bf) and start-flag (sf)
// arrays: 1 bit per element, byte-addressed exactly as the paper's storage
// analysis assumes (Table II charges 1/8 byte per non-zero for bf).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace ust {

/// Number of set bits in global positions [lo, hi) of a packed little-endian
/// word array, counted a 64-bit word at a time (0 when lo >= hi). The head
/// counter of the F-COO start flags, the stream chunker, the sharder and
/// BitArray. Uses the POPCNT instruction where the CPU has it (bits.cpp).
nnz_t count_ones(std::span<const std::uint64_t> words, nnz_t lo, nnz_t hi);

class BitArray {
 public:
  BitArray() = default;
  explicit BitArray(std::size_t n, bool value = false)
      : size_(n), words_(ceil_div<std::size_t>(n, 64), value ? ~0ull : 0ull) {
    trim();
  }

  std::size_t size() const noexcept { return size_; }
  /// Bytes actually required to store the flags (the Table II accounting).
  std::size_t byte_size() const noexcept { return ceil_div<std::size_t>(size_, 8); }

  bool get(std::size_t i) const {
    UST_EXPECTS(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }
  void set(std::size_t i, bool v) {
    UST_EXPECTS(i < size_);
    const std::uint64_t mask = 1ull << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Number of set bits.
  std::size_t popcount() const { return count_ones(words_, 0, size_); }

  /// Number of set bits in [0, i) -- used to map a non-zero to its segment.
  std::size_t rank(std::size_t i) const {
    UST_EXPECTS(i <= size_);
    return count_ones(words_, 0, i);
  }

  /// Raw packed words (little-endian bit order); for device upload.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::size_t word_count() const noexcept { return words_.size(); }

  bool operator==(const BitArray& other) const = default;

 private:
  void trim() {
    const std::size_t rem = size_ & 63;
    if (rem != 0 && !words_.empty()) words_.back() &= (1ull << rem) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ust
