#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // ceil(q n) without floating-point drift on exact products.
  const double r = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(r - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> supported_quantile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(n, q);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n - nearest_rank(n, q) < 10) ++n;
  return n;
}

std::vector<std::int64_t> poisson_due_times(double rate_per_s, std::size_t n,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<std::int64_t> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    due[i] = static_cast<std::int64_t>(t * 1e9);
  }
  return due;
}

}  // namespace perfbench
