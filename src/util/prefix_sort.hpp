#pragma once
// prefix_sort: the first k positions of std::sort in about 2n comparisons.
//
// std::sort is not stable: which of several equal keys comes first depends on
// its exact sequence of partitions. prefix_sort runs libstdc++'s introsort
// (Musser, "Introspective Sorting and Selection Algorithms", 1997) step for
// step — threshold 16, depth limit 2·⌊log2 n⌋, the median of three moved to
// the first slot, an unguarded partition, heapsort (std::make_heap +
// std::sort_heap) when the depth limit runs out, a final insertion sort — with
// two differences. It does not sort a part right of a cut at or past k, and its
// insertion sort stops at the smallest such cut.
//
// Why [0, k) is still exactly std::sort's: a partition leaves no element left
// of its cut after the pivot and none right of it before the pivot. The
// insertion sort moves an element left only past one it strictly precedes,
// so no element crosses a cut, and nothing done at or right of a cut changes
// a position left of it.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <utility>

namespace powder {

namespace prefix_sort_detail {

inline constexpr std::ptrdiff_t kThreshold = 16;

template <class It, class Comp>
void move_median_to_first(It result, It a, It b, It c, Comp& comp) {
  if (comp(*a, *b)) {
    if (comp(*b, *c))
      std::iter_swap(result, b);
    else if (comp(*a, *c))
      std::iter_swap(result, c);
    else
      std::iter_swap(result, a);
  } else if (comp(*a, *c)) {
    std::iter_swap(result, a);
  } else if (comp(*b, *c)) {
    std::iter_swap(result, c);
  } else {
    std::iter_swap(result, b);
  }
}

template <class It, class Comp>
It partition_pivot(It first, It last, Comp& comp) {
  const It pivot = first;
  move_median_to_first(first, first + 1, first + (last - first) / 2, last - 1,
                       comp);
  ++first;
  for (;;) {
    while (comp(*first, *pivot)) ++first;
    --last;
    while (comp(*pivot, *last)) --last;
    if (!(first < last)) return first;
    std::iter_swap(first, last);
    ++first;
  }
}

/// One introsort loop over [first, last); `*end` shrinks to every cut at or
/// past `k` whose right part is left unsorted. Returns the number of parts
/// that fell back to heapsort.
template <class It, class Comp>
int introsort_loop(It base, It first, It last, int depth_limit,
                   std::ptrdiff_t k, It* end, Comp& comp) {
  int heapsorts = 0;
  while (last - first > kThreshold) {
    if (depth_limit == 0) {
      std::make_heap(first, last, comp);
      std::sort_heap(first, last, comp);
      return heapsorts + 1;
    }
    --depth_limit;
    const It cut = partition_pivot(first, last, comp);
    if (cut - base < k)
      heapsorts += introsort_loop(base, cut, last, depth_limit, k, end, comp);
    else if (cut < *end)
      *end = cut;
    last = cut;
  }
  return heapsorts;
}

}  // namespace prefix_sort_detail

/// Sorts [first, last) by `comp` far enough that positions [0, k) hold what
/// std::sort(first, last, comp) puts there; the rest is left in some order.
/// Returns how many parts fell back to heapsort (the depth limit ran out).
template <class It, class Comp>
int prefix_sort(It first, It last, std::size_t k, Comp comp) {
  namespace d = prefix_sort_detail;
  const std::ptrdiff_t n = last - first;
  if (n == 0 || k == 0) return 0;
  It end = last;
  const int heapsorts = d::introsort_loop(
      first, first, last,
      2 * (std::bit_width(static_cast<std::size_t>(n)) - 1),
      static_cast<std::ptrdiff_t>(std::min<std::size_t>(
          k, static_cast<std::size_t>(n))),
      &end, comp);
  // The final insertion sort. libstdc++ guards only its first 16 inserts;
  // the result is the same.
  for (It i = first + 1; i < end; ++i) {
    auto val = std::move(*i);
    It j = i;
    for (; j != first && comp(val, *(j - 1)); --j) *j = std::move(*(j - 1));
    *j = std::move(val);
  }
  return heapsorts;
}

}  // namespace powder
