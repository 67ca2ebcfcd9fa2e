// Parity oracle for prefix_sort (util/prefix_sort.hpp), the ranking of the
// selection rounds: positions [0, k) must hold exactly what std::sort puts
// there, element for element, on the same input — ties included, since
// std::sort is not stable and the optimizer's picks depend on its tie order.
//
// Inputs: every size from 0 to 40 (around libstdc++'s 16-element threshold),
// larger sizes up to 5,000; keys drawn from 1–4 distinct values (tie-heavy)
// or all distinct; sorted, reversed and organ-pipe sequences; and a
// median-of-three killer (McIlroy's adversary) that drives std::sort into
// its depth-limit heapsort fallback. Every input runs at k = 1, 12, n − 1, n
// and n + 5.

#include "util/prefix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace powder {
namespace {

/// The selection's key shape: a metric ranked descending, and the position
/// it came from (to tell equal metrics apart).
struct Key {
  double metric;
  std::uint32_t pos;
};

bool by_metric(const Key& x, const Key& y) { return x.metric > y.metric; }

std::vector<Key> keys_of(const std::vector<double>& metrics) {
  std::vector<Key> keys(metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i)
    keys[i] = {metrics[i], static_cast<std::uint32_t>(i)};
  return keys;
}

/// Runs prefix_sort at every k of the plan and compares its prefix with
/// std::sort's. Returns the heapsort fallbacks of the k = n run.
int expect_prefix_parity(const std::vector<double>& metrics,
                         const std::string& what) {
  const std::vector<Key> input = keys_of(metrics);
  std::vector<Key> want = input;
  std::sort(want.begin(), want.end(), by_metric);
  const std::size_t n = input.size();
  std::vector<std::size_t> ks{1, 12, n, n + 5};
  if (n > 0) ks.push_back(n - 1);
  int heapsorts_full = 0;
  for (const std::size_t k : ks) {
    std::vector<Key> got = input;
    const int heapsorts = prefix_sort(got.begin(), got.end(), k, by_metric);
    if (k == n) heapsorts_full = heapsorts;
    for (std::size_t i = 0; i < std::min(k, n); ++i) {
      EXPECT_EQ(got[i].pos, want[i].pos)
          << what << " n=" << n << " k=" << k << " position " << i;
      if (got[i].pos != want[i].pos) break;
    }
    // Whatever is left past the prefix is still the same multiset.
    std::vector<std::uint32_t> seen(n);
    for (std::size_t i = 0; i < n; ++i) seen[i] = got[i].pos;
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < n; ++i)
      if (seen[i] != i) {
        ADD_FAILURE() << what << " n=" << n << " k=" << k << " lost " << i;
        break;
      }
  }
  return heapsorts_full;
}

std::vector<double> tied(std::size_t n, int distinct, Rng& rng) {
  std::vector<double> m(n);
  for (double& x : m)
    x = 0.25 * static_cast<double>(rng.below(static_cast<std::uint64_t>(
                   distinct)));
  return m;
}

std::vector<double> distinct_values(std::size_t n, Rng& rng) {
  std::vector<double> m(n);
  std::iota(m.begin(), m.end(), 0.0);
  for (std::size_t i = n; i > 1; --i)
    std::swap(m[i - 1], m[rng.below(i)]);
  return m;
}

std::vector<double> ascending(std::size_t n) {
  std::vector<double> m(n);
  std::iota(m.begin(), m.end(), 0.0);
  return m;
}

std::vector<double> organ_pipe(std::size_t n) {
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i)
    m[i] = static_cast<double>(std::min(i, n - 1 - i));
  return m;
}

/// McIlroy's adversary ("A Killer Adversary for Quicksort", 1999) against
/// std::sort under the selection's comparator: values are frozen only when
/// a comparison forces it, so that each partition peels off few elements.
/// Sorting the frozen values replays the same comparisons.
std::vector<double> quicksort_killer(std::size_t n) {
  const int gas = static_cast<int>(n);
  std::vector<int> val(n, gas);
  int solid = 0;
  std::size_t candidate = 0;
  std::vector<std::size_t> items(n);
  std::iota(items.begin(), items.end(), std::size_t{0});
  // by_metric on metric = -val: x precedes y when val[x] < val[y].
  std::sort(items.begin(), items.end(), [&](std::size_t x, std::size_t y) {
    if (val[x] == gas && val[y] == gas) val[x == candidate ? x : y] = solid++;
    if (val[x] == gas)
      candidate = x;
    else if (val[y] == gas)
      candidate = y;
    return val[x] < val[y];
  });
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = -static_cast<double>(val[i]);
  return m;
}

TEST(PrefixSort, SmallSizesAroundTheThreshold) {
  Rng rng(1);
  for (std::size_t n = 0; n <= 40; ++n) {
    for (int distinct = 1; distinct <= 4; ++distinct)
      for (int trial = 0; trial < 8; ++trial)
        expect_prefix_parity(tied(n, distinct, rng),
                             "tied/" + std::to_string(distinct));
    expect_prefix_parity(distinct_values(n, rng), "distinct");
    expect_prefix_parity(ascending(n), "ascending");
    std::vector<double> down = ascending(n);
    std::reverse(down.begin(), down.end());
    expect_prefix_parity(down, "descending");
    expect_prefix_parity(organ_pipe(n), "organ pipe");
  }
}

TEST(PrefixSort, LargeTieHeavyInputs) {
  Rng rng(2);
  for (const std::size_t n : {63, 64, 65, 255, 256, 257, 800, 1000, 5000}) {
    for (int distinct = 1; distinct <= 4; ++distinct)
      for (int trial = 0; trial < 3; ++trial)
        expect_prefix_parity(tied(n, distinct, rng),
                             "tied/" + std::to_string(distinct));
    expect_prefix_parity(distinct_values(n, rng), "distinct");
    expect_prefix_parity(ascending(n), "ascending");
    std::vector<double> down = ascending(n);
    std::reverse(down.begin(), down.end());
    expect_prefix_parity(down, "descending");
    expect_prefix_parity(organ_pipe(n), "organ pipe");
  }
}

TEST(PrefixSort, DepthLimitHeapsortFallback) {
  for (const std::size_t n : {100, 1000, 5000}) {
    const std::vector<double> killer = quicksort_killer(n);
    EXPECT_GT(expect_prefix_parity(killer, "killer"), 0)
        << "n=" << n << ": the input must reach the heapsort fallback";
  }
}

}  // namespace
}  // namespace powder
