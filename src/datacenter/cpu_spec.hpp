// CPU specifications with DVFS frequency ladders. Capacity is expressed in
// absolute GHz summed over cores — the unit in which the paper states CPU
// allocations ("c11 = 20% x 5 GHz = 1 GHz").
#pragma once

#include <string>
#include <vector>

namespace vdc::datacenter {

struct CpuSpec {
  std::string model = "generic";
  double max_freq_ghz = 2.0;
  int cores = 2;
  /// Available DVFS operating points, ascending, last == max_freq_ghz.
  std::vector<double> dvfs_freqs_ghz = {1.0, 1.25, 1.5, 1.75, 2.0};

  /// Aggregate capacity (GHz over all cores) when running at `freq_ghz`.
  [[nodiscard]] double capacity_at_ghz(double freq_ghz) const noexcept {
    return freq_ghz * static_cast<double>(cores);
  }
  [[nodiscard]] double max_capacity_ghz() const noexcept {
    return capacity_at_ghz(max_freq_ghz);
  }

  /// Lowest DVFS frequency whose capacity covers `demand_ghz`; returns the
  /// max frequency when even that is insufficient.
  [[nodiscard]] double frequency_for_demand_ghz(double demand_ghz) const;

  /// Throws std::invalid_argument when the ladder is empty, unsorted, or
  /// does not end at max_freq_ghz.
  void validate() const;
};

/// The simulator's three server classes (Section VI-B of the paper):
/// 3 GHz quad-core, 2 GHz dual-core, 1.5 GHz dual-core.
[[nodiscard]] CpuSpec quad_core_3ghz();
[[nodiscard]] CpuSpec dual_core_2ghz();
[[nodiscard]] CpuSpec dual_core_1_5ghz();

}  // namespace vdc::datacenter
