#include "consolidate/minimum_slack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "datacenter/cluster.hpp"
#include "oracles/consolidate/naive.hpp"
#include "util/rng.hpp"

namespace vdc::consolidate {
namespace {

/// Builds a snapshot with one server of the given capacity and unplaced VMs
/// with the given demands (memory is ample unless specified).
DataCenterSnapshot make_instance(double capacity_ghz, std::vector<double> demands,
                                 double server_memory = 1e6,
                                 std::vector<double> memories = {}) {
  DataCenterSnapshot snap;
  ServerSnapshot server;
  server.id = 0;
  server.max_capacity_ghz = capacity_ghz;
  server.memory_mb = server_memory;
  server.max_power_w = 200.0;
  server.power_efficiency_ghz_per_w = capacity_ghz / 200.0;
  server.active = true;
  snap.servers.push_back(server);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = demands[i];
    vm.memory_mb = memories.empty() ? 1.0 : memories[i];
    snap.vms.push_back(vm);
  }
  return snap;
}

std::vector<VmId> all_ids(const DataCenterSnapshot& snap) {
  std::vector<VmId> ids(snap.vms.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

double demand_of(const DataCenterSnapshot& snap, const std::vector<VmId>& vms) {
  double total = 0.0;
  for (const VmId vm : vms) total += snap.vm(vm).cpu_demand_ghz;
  return total;
}

TEST(MinimumSlack, FindsPerfectFill) {
  // Subset {3, 2.5, 0.5} fills the 6 GHz server exactly.
  const DataCenterSnapshot snap = make_instance(6.0, {3.0, 2.5, 2.0, 0.5});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_NEAR(r.slack_ghz, 0.0, 1e-9);
  EXPECT_NEAR(demand_of(snap, r.selected), 6.0, 1e-9);
}

TEST(MinimumSlack, BeatsGreedyOnClassicInstance) {
  // Greedy (largest-first) fills 5+3 = 8 of 10; optimal is 5+3+2 = 10.
  const DataCenterSnapshot snap = make_instance(10.0, {5.0, 4.0, 3.0, 2.0});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_NEAR(demand_of(snap, r.selected), 10.0, 1e-9);
}

TEST(MinimumSlack, RespectsExistingResidents) {
  DataCenterSnapshot snap = make_instance(6.0, {3.0, 2.0, 1.0});
  snap.servers[0].hosted = {0};  // VM 0 already on the server
  snap.vms[0].cpu_demand_ghz = 3.0;
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {1, 2};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  // Room is 3: takes both VM 1 (2.0) and VM 2 (1.0).
  EXPECT_NEAR(r.slack_ghz, 0.0, 1e-9);
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(MinimumSlack, HonorsMemoryConstraint) {
  // CPU-wise both fit; memory admits only one.
  const DataCenterSnapshot snap =
      make_instance(10.0, {2.0, 2.0}, /*server_memory=*/1024.0,
                    /*memories=*/{800.0, 800.0});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected.size(), 1u);
}

TEST(MinimumSlack, HonorsCustomConstraint) {
  const DataCenterSnapshot snap = make_instance(10.0, {1.0, 1.0, 1.0, 1.0});
  const WorkingPlacement wp(snap);
  ConstraintSet constraints;
  constraints.add(std::make_unique<CustomConstraint>(
      "max-two", [](const ServerSnapshot&, std::span<const VmSnapshot* const> vms) {
        return vms.size() <= 2;
      }));
  const std::vector<VmId> candidates = {0, 1, 2, 3};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected.size(), 2u);
}

TEST(MinimumSlack, EpsilonAcceptsGoodEnoughFit) {
  const DataCenterSnapshot snap = make_instance(6.0, {5.95, 3.0, 2.9});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 0.1;
  const std::vector<VmId> candidates = {0, 1, 2};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints, options);
  // 5.95 leaves slack 0.05 < 0.1: accepted immediately, search stops.
  EXPECT_NEAR(r.slack_ghz, 0.05, 1e-9);
  EXPECT_EQ(r.selected, (std::vector<VmId>{0}));
}

TEST(MinimumSlack, EmptyCandidatesKeepBaseline) {
  const DataCenterSnapshot snap = make_instance(6.0, {});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const MinSlackResult r = minimum_slack(wp, 0, {}, constraints);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.slack_ghz, 6.0);
}

TEST(MinimumSlack, OversizedCandidatesIgnored) {
  const DataCenterSnapshot snap = make_instance(2.0, {5.0, 1.5});
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0, 1};
  const MinSlackResult r = minimum_slack(wp, 0, candidates, constraints);
  EXPECT_EQ(r.selected, (std::vector<VmId>{1}));
}

TEST(MinimumSlack, RejectsPlacedCandidates) {
  DataCenterSnapshot snap = make_instance(6.0, {1.0});
  snap.servers[0].hosted = {0};
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  const std::vector<VmId> candidates = {0};
  EXPECT_THROW(minimum_slack(wp, 0, candidates, constraints), std::invalid_argument);
}

TEST(MinimumSlack, StepBudgetEscalationTerminates) {
  // 24 identical-ish items force a big search tree; a tiny budget must
  // still terminate and produce a sane (feasible) answer.
  std::vector<double> demands;
  for (int i = 0; i < 24; ++i) demands.push_back(0.37 + 0.001 * i);
  const DataCenterSnapshot snap = make_instance(4.0, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;  // practically unreachable
  options.step_budget = 50;
  options.max_escalations = 3;
  const MinSlackResult r = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_LE(demand_of(snap, r.selected), 4.0 + 1e-9);
  EXPECT_GT(r.escalations, 0u);
}

TEST(MinimumSlack, BudgetExhaustedExactlyAtEscalationBoundary) {
  // Ten candidates, none of which fit the server: the search touches each
  // once (one counted step apiece) and selects nothing, so the total step
  // count is exactly n. With step_budget == n the final touch lands exactly
  // on the escalation threshold — one escalation must fire, and the fast
  // engine's bulk-counted skip must land on the same boundary the naive
  // per-step walk does.
  const DataCenterSnapshot snap = make_instance(4.0, std::vector<double>(10, 5.0));
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;
  options.step_budget = 10;
  options.max_escalations = 3;
  const MinSlackResult fast = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_TRUE(fast.selected.empty());
  EXPECT_EQ(fast.steps, 10u);
  EXPECT_EQ(fast.escalations, 1u);
  EXPECT_EQ(ref.steps, fast.steps);
  EXPECT_EQ(ref.escalations, fast.escalations);

  // One more unit of budget and the boundary is never reached: same empty
  // selection, zero escalations, in both engines.
  options.step_budget = 11;
  const MinSlackResult under = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult under_ref =
      naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_EQ(under.steps, 10u);
  EXPECT_EQ(under.escalations, 0u);
  EXPECT_EQ(under_ref.steps, under.steps);
  EXPECT_EQ(under_ref.escalations, under.escalations);
}

TEST(MinimumSlack, MaxEscalationsExhaustionMatchesNaive) {
  // A 2^24-node tree against a 40-step budget and two permitted
  // escalations: the search terminates by exhausting max_escalations, and
  // the fast engine must stop at the same logical step with the same
  // incumbent as the reference (branch-and-bound stays disarmed when the
  // budget can bind, so even the step accounting is required to be exact).
  std::vector<double> demands;
  for (int i = 0; i < 24; ++i) demands.push_back(0.37 + 0.001 * i);
  const DataCenterSnapshot snap = make_instance(4.0, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-9;  // unreachable: termination is by escalation
  options.step_budget = 40;
  options.max_escalations = 2;
  const MinSlackResult fast = minimum_slack(wp, 0, all_ids(snap), constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, all_ids(snap), constraints, options);
  EXPECT_EQ(fast.escalations, 2u);
  EXPECT_EQ(fast.selected, ref.selected);
  EXPECT_EQ(fast.steps, ref.steps);
  EXPECT_EQ(fast.escalations, ref.escalations);
  EXPECT_DOUBLE_EQ(fast.slack_ghz, ref.slack_ghz);
  // The budget bound: steps never exceed (escalations + 1) * step_budget.
  EXPECT_LE(fast.steps, (options.max_escalations + 1) * options.step_budget);
}

// ---- sorted-order cache --------------------------------------------------
//
// minimum_slack keeps the previous call's sorted candidate order and reuses
// it for the same span, or filters it for a strict subset (PAC's pattern
// after each selection). Every call sequence below must give what a call
// with no cache gives, and what the reference engine gives.

/// One 8 GHz server at utilization target 0.8 and 30 unplaced candidates of
/// 0.05-2.5 GHz (ids 0-29), plus VM 30 (7 GHz), which fits nowhere.
DataCenterSnapshot cache_instance() {
  util::Rng rng(11);
  std::vector<double> demands;
  std::vector<double> memories;
  for (int i = 0; i < 30; ++i) {
    demands.push_back(rng.uniform(0.05, 2.5));
    memories.push_back(rng.uniform(100.0, 900.0));
  }
  demands.push_back(7.0);
  memories.push_back(100.0);
  return make_instance(8.0, demands, 12000.0, memories);
}

std::vector<VmId> id_range(VmId first, VmId last) {
  std::vector<VmId> ids;
  for (VmId vm = first; vm <= last; ++vm) ids.push_back(vm);
  return ids;
}

MinSlackOptions binding_options() {
  MinSlackOptions options;
  options.epsilon_ghz = 1e-6;  // practically unreachable: budget governs
  options.step_budget = 500;
  options.max_escalations = 6;
  return options;
}

/// Minimum Slack on a fresh thread, whose thread-local scratch holds no
/// cached order: the cold call every cached call must reproduce.
MinSlackResult cold_minimum_slack(const WorkingPlacement& wp, const std::vector<VmId>& candidates,
                                  const ConstraintSet& constraints,
                                  const MinSlackOptions& options) {
  MinSlackResult out;
  std::thread([&] { out = minimum_slack(wp, 0, candidates, constraints, options); }).join();
  return out;
}

/// Calls minimum_slack on this thread (whatever its cache holds) and
/// checks it against a cold call and the reference engine.
MinSlackResult expect_cache_exact(const WorkingPlacement& wp, const std::vector<VmId>& candidates,
                                  const std::string& what) {
  const ConstraintSet constraints = ConstraintSet::standard(0.8);
  const MinSlackOptions options = binding_options();
  const MinSlackResult warm = minimum_slack(wp, 0, candidates, constraints, options);
  const MinSlackResult cold = cold_minimum_slack(wp, candidates, constraints, options);
  const MinSlackResult ref = naive::minimum_slack(wp, 0, candidates, constraints, options);
  // Same engine over the same order: bit for bit.
  EXPECT_EQ(warm.selected, cold.selected) << what;
  EXPECT_EQ(warm.steps, cold.steps) << what;
  EXPECT_EQ(warm.escalations, cold.escalations) << what;
  EXPECT_EQ(warm.slack_ghz, cold.slack_ghz) << what;
  // The reference: slack sums may differ in the last bits (see
  // test_consolidation_equivalence.cpp), and counted steps agree whenever
  // the 2^n - 1 node tree exceeds the budget, which disarms
  // branch-and-bound.
  EXPECT_EQ(warm.selected, ref.selected) << what;
  EXPECT_EQ(warm.escalations, ref.escalations) << what;
  if ((std::size_t{1} << candidates.size()) - 1 > options.step_budget) {
    EXPECT_EQ(warm.steps, ref.steps) << what;
  }
  EXPECT_NEAR(warm.slack_ghz, ref.slack_ghz,
              1e-12 + static_cast<double>(ref.steps) * 0x1p-48)
      << what;
  return warm;
}

TEST(MinimumSlackOrderCache, ShrinkingSubsetsMatchColdCalls) {
  // PAC's pattern: probe with a list, drop what was selected, probe again
  // with the (order-preserving) remainder.
  const DataCenterSnapshot snap = cache_instance();
  const WorkingPlacement wp(snap);
  std::vector<VmId> remaining = id_range(0, 29);
  for (int round = 0; round < 6 && !remaining.empty(); ++round) {
    const MinSlackResult r = expect_cache_exact(wp, remaining, "round " + std::to_string(round));
    if (r.selected.empty()) {
      remaining.erase(remaining.begin());
    } else {
      std::erase_if(remaining, [&](VmId vm) {
        return std::find(r.selected.begin(), r.selected.end(), vm) != r.selected.end();
      });
    }
  }
  // A subset handed over in a different order sorts the same way.
  std::vector<VmId> reversed = id_range(0, 29);
  expect_cache_exact(wp, reversed, "full list");
  std::reverse(reversed.begin(), reversed.end());
  reversed.resize(12);
  expect_cache_exact(wp, reversed, "reversed subset");
}

TEST(MinimumSlackOrderCache, SameSizeDifferentSetMatchesColdCall) {
  const DataCenterSnapshot snap = cache_instance();
  const WorkingPlacement wp(snap);
  expect_cache_exact(wp, id_range(0, 19), "first set");
  expect_cache_exact(wp, id_range(10, 29), "same size, different set");
}

TEST(MinimumSlackOrderCache, SupersetMatchesColdCall) {
  const DataCenterSnapshot snap = cache_instance();
  const WorkingPlacement wp(snap);
  expect_cache_exact(wp, id_range(0, 14), "subset first");
  expect_cache_exact(wp, id_range(0, 29), "then its superset");
}

TEST(MinimumSlackOrderCache, SmallerListWithForeignIdMatchesColdCall) {
  const DataCenterSnapshot snap = cache_instance();
  const WorkingPlacement wp(snap);
  expect_cache_exact(wp, id_range(0, 19), "cached list");
  expect_cache_exact(wp, {25, 3, 7, 11}, "smaller list with an id the cache lacks");
}

TEST(MinimumSlackOrderCache, DuplicateIdsMatchColdCall) {
  // Callers pass distinct candidates (the selection audit rejects a VM
  // selected twice), so the duplicated VM here is VM 30, which fits
  // nowhere: the call exercises only the cache's fallback to the sort.
  const DataCenterSnapshot snap = cache_instance();
  const WorkingPlacement wp(snap);
  expect_cache_exact(wp, id_range(0, 30), "cached list");
  expect_cache_exact(wp, {30, 2, 4, 6, 8, 30, 10}, "smaller list with a duplicate");
  expect_cache_exact(wp, {30, 2, 4, 6, 8, 30, 10}, "the same duplicated span again");
  expect_cache_exact(wp, {2, 4, 6}, "subset of a duplicated span");
}

TEST(MinimumSlackOrderCache, MutatedDemandAtSameSnapshotMatchesColdCall) {
  // The cache is keyed by snapshot address; a demand changed in place must
  // be caught by the mirror check on both the reuse and the filter path.
  DataCenterSnapshot snap = cache_instance();
  {
    const WorkingPlacement wp(snap);
    expect_cache_exact(wp, id_range(0, 29), "before the change");
  }
  // VM 3 now fills the CPU limit (8 GHz x 0.8) on its own: the best fit.
  snap.vms[3].cpu_demand_ghz = 6.4;
  {
    const WorkingPlacement wp(snap);
    const MinSlackResult r = expect_cache_exact(wp, id_range(0, 19), "filtered after the change");
    EXPECT_EQ(r.selected, std::vector<VmId>{3});
  }
  // And then VM 5 does, while VM 3 shrinks to the back of the order.
  snap.vms[3].cpu_demand_ghz = 0.06;
  snap.vms[5].cpu_demand_ghz = 6.4;
  {
    const WorkingPlacement wp(snap);
    const MinSlackResult r = expect_cache_exact(wp, id_range(0, 19), "same span after the change");
    EXPECT_EQ(r.selected, std::vector<VmId>{5});
  }
}

/// The message of the std::invalid_argument `options.validate()` throws,
/// or "" when it accepts the options.
std::string validation_error(const MinSlackOptions& options) {
  try {
    options.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(MinSlackOptions, ValidateRejectsBadEpsilonsNamingTheField) {
  EXPECT_EQ(validation_error(MinSlackOptions{}), "");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -0.01}) {
    MinSlackOptions options;
    options.epsilon_ghz = bad;
    EXPECT_NE(validation_error(options).find("epsilon_ghz"), std::string::npos) << bad;
  }
  for (const double bad : {nan, inf, 0.5, 0.0, -2.0}) {
    MinSlackOptions options;
    options.epsilon_escalation = bad;
    EXPECT_NE(validation_error(options).find("epsilon_escalation"), std::string::npos) << bad;
  }
  // The boundary values are legal: a zero epsilon never accepts early and
  // an escalation of 1 never grows; the escalation cap still terminates.
  MinSlackOptions edge;
  edge.epsilon_ghz = 0.0;
  edge.epsilon_escalation = 1.0;
  EXPECT_EQ(validation_error(edge), "");
}

class MinSlackOptimalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MinSlackOptimalitySweep, MatchesBruteForceOnSmallInstances) {
  util::Rng rng(static_cast<std::uint64_t>(700 + GetParam()));
  const std::size_t n = 8;
  std::vector<double> demands(n);
  for (double& d : demands) d = rng.uniform(0.3, 2.0);
  const double capacity = 4.0;
  const DataCenterSnapshot snap = make_instance(capacity, demands);
  const WorkingPlacement wp(snap);
  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  // Brute force best subset by slack.
  double best = capacity;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) total += demands[i];
    }
    if (total <= capacity + 1e-12) best = std::min(best, capacity - total);
  }

  std::vector<VmId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  MinSlackOptions options;
  options.epsilon_ghz = 1e-9;
  const MinSlackResult r = minimum_slack(wp, 0, ids, constraints, options);
  EXPECT_NEAR(r.slack_ghz, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinSlackOptimalitySweep, ::testing::Range(0, 15));

}  // namespace
}  // namespace vdc::consolidate
