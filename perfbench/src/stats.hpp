// Sample statistics and the open-loop arrival schedule of the benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
double median(std::vector<double> v);

/// The q-quantile (0 < q < 1) of `v` by nearest rank, reported only when
/// at least 10 samples lie strictly beyond it: with n samples the
/// nearest rank is ceil(q n), leaving n - ceil(q n) samples above. A
/// smaller sample cannot support the percentile, so nullopt.
std::optional<double> supported_quantile(std::vector<double> v, double q);

/// The largest sample count for which q is NOT supported, plus one:
/// the smallest n with n - ceil(q n) >= 10.
std::size_t min_samples_for(double q);

/// Open-loop schedule: due times (ns from the start of the phase) of
/// `n` Poisson arrivals at `rate_per_s`, drawn from `seed`.
std::vector<std::int64_t> poisson_due_times(double rate_per_s, std::size_t n,
                                            std::uint64_t seed);

/// Latency of one open-loop request, from when it was due to when its
/// reply arrived. A request sent late still counts from its due time,
/// so a stalled generator shows up as latency, not as a lighter load.
inline std::int64_t latency_from_due(std::int64_t due_ns,
                                     std::int64_t done_ns) {
  return done_ns - due_ns;
}

}  // namespace perfbench
