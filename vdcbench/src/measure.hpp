// Host-side measurement primitives shared by the benchmark's workloads and
// its traced run: wall and process-CPU clocks, peak RSS, a byte digest, and
// percentiles over timing samples.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/statistics.hpp"

namespace vdcbench {

/// Monotonic wall clock, seconds.
inline double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads, user + sys), seconds.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image (VmHWM), MiB. Read from procfs
/// rather than getrusage so the launcher's own footprint, which survives
/// exec in ru_maxrss, is not counted.
inline double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// FNV-1a 64 over raw bytes; chained through `seed` to digest several
/// fields in sequence.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
inline std::uint64_t fnv1a(std::string_view s, std::uint64_t seed = 1469598103934665603ull) {
  return fnv1a(s.data(), s.size(), seed);
}

/// Type-7 quantile of `samples`; 0 for an empty set.
inline double quantile_of(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : vdc::util::quantile(samples, q);
}

}  // namespace vdcbench
