/**
 * @file
 * Order statistics for the benchmark's latency samples.
 */

#ifndef PERFBENCH_STATS_HPP_
#define PERFBENCH_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/** Linear-interpolated quantile q in [0, 1]; 0 for an empty sample. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The highest quantile that still has at least ten samples beyond it,
 * capped at p99 and floored at the median: p99 needs >= 1000 samples.
 */
inline double
tailQuantileLevel(size_t samples)
{
    if (samples == 0)
        return 0.5;
    const double q = 1.0 - 10.0 / static_cast<double>(samples);
    return std::clamp(q, 0.5, 0.99);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP_
