// Shared helpers of the end-to-end benchmark: clocks, seed derivation,
// quantiles and the small JSON accessors the checks use.
#ifndef TSGBENCH_COMMON_H
#define TSGBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace tsgbench {

using clock_type = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin (steady clock).
inline double now_s()
{
    static const clock_type::time_point origin = clock_type::now();
    return std::chrono::duration<double>(clock_type::now() - origin).count();
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// The per-request random stream key: a pure function of
/// (run seed, client, request index), so no request depends on timing.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t client, std::uint64_t index)
{
    return mix64(mix64(mix64(seed) ^ (client + 1)) ^ (index + 1));
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Member lookup that throws on absence (the checks treat a missing
/// field as a malformed response).
inline const tsg::json_value& member(const tsg::json_value& v, const std::string& key)
{
    const tsg::json_value* m = v.find(key);
    if (m == nullptr) throw std::runtime_error("response lacks \"" + key + "\"");
    return *m;
}

/// Integer value of an optional nested member path; 0 if absent.
inline std::uint64_t count_at(const tsg::json_value& v, std::initializer_list<const char*> path)
{
    const tsg::json_value* cur = &v;
    for (const char* key : path) {
        cur = cur->find(key);
        if (cur == nullptr) return 0;
    }
    return cur->k == tsg::json_value::kind::number_v ? std::stoull(cur->text) : 0;
}

} // namespace tsgbench

#endif // TSGBENCH_COMMON_H
