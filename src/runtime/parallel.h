// Deterministic data-parallel primitives: parallel_for and parallel_reduce.
//
// Determinism contract
// --------------------
// Results are bitwise-identical for every thread count, including 1. The
// two rules that make this hold:
//
//   1. Static chunking. A range [begin, end) with grain g is split into
//      ceil(n/g) fixed chunks; the layout depends only on (n, g), never on
//      the thread count or on scheduling. The serial path iterates the same
//      chunks in the same layout, so even a reduction's rounding is shared
//      between the serial and parallel paths.
//   2. Ordered combination. parallel_reduce evaluates one partial value per
//      chunk (in whatever order the pool schedules them — each partial only
//      depends on its own chunk) and then folds the partials in ascending
//      chunk order on the calling thread. Floating-point reductions are
//      therefore reproducible run-to-run and across machine loads.
//
// parallel_for bodies must write disjoint state per index (the usual
// element-wise / row-parallel pattern); under that discipline rule 1 makes
// the result trivially thread-count independent.
//
// Nesting: a parallel_for inside a chunk body submits a *nested job* to the
// scheduler — its chunks are pushed as stealable children onto the calling
// worker's deque, so idle workers help instead of the construct silently
// serializing. The chunk layout is the same either way, so results are
// unchanged.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

namespace mch::runtime {

/// Default grain for element-wise kernels: small enough to spread work over
/// many threads on large designs, large enough that per-chunk dispatch cost
/// is negligible next to the arithmetic.
inline constexpr std::size_t kGrainElementwise = 4096;

/// Default grain for row-structured kernels (SpMV rows, matrix blocks),
/// whose per-index cost is a few multiplies rather than one.
inline constexpr std::size_t kGrainRows = 1024;

/// Number of fixed chunks for a range of n items at the given grain.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// Invokes fn(chunk_begin, chunk_end) over consecutive subranges of
/// [begin, end), each at most `grain` long. Chunks run concurrently when
/// the global Runtime has more than one thread; fn must write disjoint
/// state per index. Exceptions from fn propagate to the caller.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);

  Scheduler* sched = Runtime::instance().scheduler();
  if (sched == nullptr || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      fn(lo, hi);
    }
    return;
  }
  sched->run(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    fn(lo, hi);
  });
}

/// Deterministic reduction: partials[c] = map(chunk_begin, chunk_end) are
/// evaluated (possibly concurrently), then folded left-to-right in chunk
/// order: acc = combine(acc, partials[0]), combine(acc, partials[1]), ...
/// starting from `identity`. Bitwise-identical for every thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, Map&& map, Combine&& combine) {
  if (end <= begin) return identity;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(end - begin, grain);
  std::vector<T> partials(chunks, identity);
  parallel_for(begin, end, grain, [&](std::size_t lo, std::size_t hi) {
    // Chunk index recovered from the fixed layout: lo = begin + c * grain.
    partials[(lo - begin) / grain] = map(lo, hi);
  });
  T accumulator = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c)
    accumulator = combine(std::move(accumulator), partials[c]);
  return accumulator;
}

}  // namespace mch::runtime
