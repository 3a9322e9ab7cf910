#include "util/bits.hpp"

#include <bit>

namespace ust {

// A baseline x86-64 build has no POPCNT, so std::popcount would be a call
// to libgcc's table-driven __popcountdi2; the "popcnt" clone is chosen at
// load time on CPUs that have the instruction. Sanitizer builds keep the
// default: the clone resolver runs during relocation, before the sanitizer
// runtime is up, and its instrumented code crashes there.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__) && \
    !defined(__SANITIZE_ADDRESS__)
__attribute__((target_clones("default", "popcnt")))
#endif
nnz_t count_ones(std::span<const std::uint64_t> words, nnz_t lo, nnz_t hi) {
  if (lo >= hi) return 0;
  const nnz_t first = lo >> 6;
  const nnz_t last = (hi - 1) >> 6;
  const std::uint64_t from_lo = ~std::uint64_t{0} << (lo & 63);
  const std::uint64_t through_hi = ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
  if (first == last) {
    return static_cast<nnz_t>(std::popcount(words[first] & from_lo & through_hi));
  }
  nnz_t count = static_cast<nnz_t>(std::popcount(words[first] & from_lo));
  for (nnz_t w = first + 1; w < last; ++w) {
    count += static_cast<nnz_t>(std::popcount(words[w]));
  }
  return count + static_cast<nnz_t>(std::popcount(words[last] & through_hi));
}

}  // namespace ust
