// Power Aware Consolidation (PAC, Section V): walk the servers from most to
// least power-efficient; on each, run Minimum Slack over the remaining
// unallocated VMs and commit the best-fitting subset; stop when every VM is
// placed. Greedy in server order, near-optimal per server via Algorithm 1.
#pragma once

#include <span>

#include "consolidate/minimum_slack.hpp"
#include "consolidate/slack_index.hpp"
#include "consolidate/topology_cost.hpp"
#include "consolidate/working_placement.hpp"

namespace vdc::consolidate {

struct PacResult {
  std::vector<VmId> placed;
  std::vector<VmId> unplaced;  ///< no server could take them
  std::size_t servers_used = 0;  ///< servers that received at least one VM
  std::size_t min_slack_steps = 0;  ///< total DFS work across servers
  /// Migration energy (J) of the placements made; 0 for unbudgeted runs.
  double migration_energy_j = 0.0;
};

/// Consolidates `vms` (currently unplaced in `placement`) onto the servers.
/// Mutates `placement`. Servers already hosting VMs participate: their
/// residents count toward the constraints, exactly as in the paper ("given
/// a list of servers (some servers are possibly not empty)").
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options = {});

/// Variant with an explicit server visiting order (IPAC uses it to exclude
/// the server being evacuated from the target list).
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options,
                                    std::span<const ServerId> server_order);

/// Variant driven by a SlackIndex built over the visiting order: servers
/// whose raw CPU slack cannot take even the smallest remaining candidate
/// are skipped in O(log n) instead of each paying an (empty) Minimum Slack
/// call. The index must be registered as the placement's slack observer so
/// placements keep it current; masked servers (IPAC's donor) are never
/// visited. Plan-identical to the linear walk — see SlackIndex's header
/// for the argument.
PacResult power_aware_consolidation(WorkingPlacement& placement, std::span<const VmId> vms,
                                    const ConstraintSet& constraints,
                                    const MinSlackOptions& options, const SlackIndex& index);

/// What a budgeted PAC run needs to price a move: where each VM comes from,
/// the distance-dependent energy model, and how much energy the plan may
/// still spend. Placing a VM with no origin (kNoServer — crash-evicted or
/// brand new) copies nothing and costs 0 J.
struct MigrationCostContext {
  const MigrationCostModel* model = nullptr;
  /// Indexed by VmId: the host each VM migrates away from.
  std::span<const ServerId> origin;
  double budget_j = 0.0;
};

/// Budgeted, rack-aware PAC: the per-server Minimum Slack runs are the
/// budgeted variant, each seeing the energy left after earlier selections,
/// so a plan never spends past the budget. Reference mirror:
/// naive::power_aware_consolidation_budgeted in
/// tests/oracles/consolidate/naive.hpp.
PacResult power_aware_consolidation_budgeted(WorkingPlacement& placement,
                                             std::span<const VmId> vms,
                                             const ConstraintSet& constraints,
                                             const MinSlackOptions& options,
                                             std::span<const ServerId> server_order,
                                             const MigrationCostContext& cost);

}  // namespace vdc::consolidate
