// Topology ablation: what the physical rack/pod layer buys and costs.
//
// Two questions, one committed JSON (BENCH_topology.json):
//
//  1. Economics (fig6-style steady-state fleet, 2 pods x 4 racks x 8
//     servers): does the rack-aware budgeted optimizer beat the flat
//     planner on NET energy — stationary power including shared rack/pod
//     draw over one benefit horizon, PLUS the distance-dependent migration
//     energy the plan spends? The fleet is the shape a fleet has BETWEEN
//     consolidation passes: six racks densely packed by earlier passes,
//     two racks holding post-churn stragglers. The flat engine's
//     efficiency-ordered evacuation stalls on the first dense donor (its
//     VMs fit nowhere without waking a server); the occupancy-ordered
//     rack-aware walk drains the straggler racks into dense slack and
//     switches their shared draw off. Three planners run over the same
//     racked world — flat (blind to the topology), rack-aware with an
//     effectively infinite budget, rack-aware with a per-plan budget —
//     and every plan is scored by the same independent assignment
//     evaluator.
//
//  2. Scale (10k servers / 50k VMs, 2 pods x 50 racks x 100 servers): does
//     the fast engine's incremental per-rack aggregate bookkeeping keep a
//     rack-aware plan inside the optimizer's 300 s invocation period?
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "consolidate/ipac.hpp"
#include "util/rng.hpp"

namespace {

using namespace vdc;
using namespace vdc::consolidate;
using cli::Json;

constexpr double kBudgetS = 300.0;       ///< optimizer invocation period
constexpr double kHorizonS = 300.0;      ///< placement expected to stand one period
constexpr double kRackSharedW = 150.0;   ///< ToR switch + PDU + rack fans
constexpr double kPodSharedW = 400.0;    ///< aggregation switch + CRAC share

/// Builds the rack/pod overlay for `pods` x `racks_per_pod` x `per_rack`
/// rack-major server ids and stamps the coordinates onto the servers.
void attach_topology(DataCenterSnapshot& snap, std::size_t pods, std::size_t racks_per_pod,
                     std::size_t per_rack) {
  for (ServerSnapshot& s : snap.servers) {
    s.rack = static_cast<RackId>(s.id / per_rack);
    s.pod = static_cast<PodId>(s.rack / racks_per_pod);
  }
  for (RackId r = 0; r < pods * racks_per_pod; ++r) {
    RackSnapshot rack;
    rack.id = r;
    rack.pod = static_cast<PodId>(r / racks_per_pod);
    rack.shared_power_w = kRackSharedW;
    for (std::size_t k = 0; k < per_rack; ++k) {
      rack.members.push_back(static_cast<ServerId>(r * per_rack + k));
    }
    snap.racks.push_back(rack);
  }
  for (PodId p = 0; p < pods; ++p) {
    snap.pods.push_back(PodSnapshot{.id = p, .shared_power_w = kPodSharedW});
  }
}

ServerSnapshot make_server(ServerId id, double capacity_ghz, bool active) {
  ServerSnapshot s;
  s.id = id;
  s.max_capacity_ghz = capacity_ghz;
  s.memory_mb = 16384.0;
  s.max_power_w = 150.0 + capacity_ghz * 15.0;
  s.idle_power_w = 0.55 * s.max_power_w;
  s.sleep_power_w = 6.0;
  s.power_efficiency_ghz_per_w = s.max_capacity_ghz / s.max_power_w;
  s.active = active;
  return s;
}

void add_vm(DataCenterSnapshot& snap, ServerId host, double demand_ghz, double memory_mb) {
  VmSnapshot vm;
  vm.id = static_cast<VmId>(snap.vms.size());
  vm.cpu_demand_ghz = demand_ghz;
  vm.memory_mb = memory_mb;
  snap.vms.push_back(vm);
  snap.servers.at(host).hosted.push_back(vm.id);
}

/// The fleet between consolidation passes: 2 pods x 4 racks x 8 servers.
/// Racks 0-5 are dense — packed to ~85% CPU by earlier passes, so no dense
/// server's VMs fit anywhere without waking a machine. Two of the dense
/// racks also hold a "loose" inefficient server with one small VM (the
/// drainable work every planner finds). Racks 6-7 hold post-churn
/// stragglers: two awake servers with one small VM each, six sleepers.
/// Only a planner that orders donors by rack occupancy reaches the
/// stragglers (the flat engine stalls on its first dense donor first) —
/// and draining them switches two rack shared draws off.
DataCenterSnapshot steady_state_fleet(std::uint64_t seed) {
  util::Rng rng(seed);
  DataCenterSnapshot snap;
  constexpr std::size_t kPerRack = 8;
  constexpr double kDenseCaps[] = {6.0, 7.0, 8.0, 9.0, 10.0, 8.0, 9.0, 7.0};
  for (RackId r = 0; r < 6; ++r) {  // dense racks
    for (std::size_t k = 0; k < kPerRack; ++k) {
      const ServerId id = static_cast<ServerId>(r * kPerRack + k);
      // Loose servers: least-efficient cap so they head the flat donor walk.
      const bool loose = (r == 0 || r == 3) && k == kPerRack - 1;
      const double cap = loose ? 5.0 : kDenseCaps[k];
      snap.servers.push_back(make_server(id, cap, /*active=*/true));
      if (loose) {
        add_vm(snap, id, 0.5, 2048.0);
      } else {
        // Three VMs totalling ~85% utilization: each is far larger than any
        // other dense server's slack, so evacuating a dense donor forces a
        // wake-up.
        for (int v = 0; v < 3; ++v) {
          add_vm(snap, id, cap * 0.283 * rng.uniform(0.95, 1.05), 4096.0);
        }
      }
    }
  }
  for (RackId r = 6; r < 8; ++r) {  // straggler racks
    for (std::size_t k = 0; k < kPerRack; ++k) {
      const ServerId id = static_cast<ServerId>(r * kPerRack + k);
      const bool occupied = k < 2;
      // Occupied stragglers are mid-tier machines: dense cap-10 servers
      // outrank them in PAC's efficiency-ordered target walk, so a drained
      // VM lands in dense slack instead of ping-ponging onto the other
      // straggler. The sleepers are big cap-12 boxes — waking one is the
      // wrong call here, and both engines must correctly refuse to.
      snap.servers.push_back(make_server(id, occupied ? 8.0 : 12.0, /*active=*/occupied));
      if (occupied) add_vm(snap, id, 0.4, 3072.0);
    }
  }
  attach_topology(snap, 2, 4, kPerRack);
  return snap;
}

/// Heterogeneous fleet in the perf_consolidation mold, with the rack/pod
/// overlay attached: capacities 3-12 GHz, VMs 0.1-1.5 GHz round-robin over
/// the awake servers, every 10th server asleep. Used for the plan-time
/// measurement at scale.
DataCenterSnapshot random_racked_fleet(std::size_t pods, std::size_t racks_per_pod,
                                       std::size_t per_rack, std::size_t vms,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  DataCenterSnapshot snap;
  const std::size_t servers = pods * racks_per_pod * per_rack;
  std::vector<ServerId> awake;
  for (std::size_t i = 0; i < servers; ++i) {
    ServerSnapshot s;
    s.id = static_cast<ServerId>(i);
    s.max_capacity_ghz = rng.uniform(3.0, 12.0);
    s.memory_mb = rng.uniform(8000.0, 32000.0);
    s.max_power_w = 150.0 + s.max_capacity_ghz * 15.0;
    s.idle_power_w = 0.55 * s.max_power_w;
    s.sleep_power_w = 6.0;
    s.power_efficiency_ghz_per_w = s.max_capacity_ghz / s.max_power_w;
    s.active = i % 10 != 9;
    if (s.active) awake.push_back(s.id);
    snap.servers.push_back(s);
  }
  for (std::size_t i = 0; i < vms; ++i) {
    VmSnapshot vm;
    vm.id = static_cast<VmId>(i);
    vm.cpu_demand_ghz = rng.uniform(0.1, 1.5);
    vm.memory_mb = rng.uniform(400.0, 2000.0);
    snap.vms.push_back(vm);
    snap.servers[awake[i % awake.size()]].hosted.push_back(vm.id);
  }
  attach_topology(snap, pods, racks_per_pod, per_rack);
  return snap;
}

RackAwareOptions rack_options(double budget_j) {
  RackAwareOptions rack;
  rack.enabled = true;
  rack.cost.transfer.cross_rack_bandwidth_factor = 0.5;
  rack.cost.transfer.cross_pod_bandwidth_factor = 0.25;
  rack.migration_energy_budget_j = budget_j;
  rack.benefit_horizon_s = kHorizonS;
  return rack;
}

/// Stationary power (W) of the fleet after applying `plan`, shared rack and
/// pod draws included — the independent scorer all three planners share.
double power_after_w(const DataCenterSnapshot& snap, const PlacementPlan& plan) {
  std::vector<ServerId> host(snap.vms.size(), datacenter::kNoServer);
  for (const ServerSnapshot& s : snap.servers) {
    for (const VmId vm : s.hosted) host[vm] = s.id;
  }
  for (const Move& move : plan.moves) host[move.vm] = move.to;
  std::vector<double> demand(snap.servers.size(), 0.0);
  std::vector<std::size_t> count(snap.servers.size(), 0);
  for (std::size_t v = 0; v < host.size(); ++v) {
    if (host[v] == datacenter::kNoServer) continue;
    demand[host[v]] += snap.vms[v].cpu_demand_ghz;
    ++count[host[v]];
  }
  double total = 0.0;
  for (const ServerSnapshot& s : snap.servers) {
    if (count[s.id] > 0) {
      const double util = demand[s.id] / s.max_capacity_ghz;
      total += s.idle_power_w + (s.max_power_w - s.idle_power_w) * (util < 1.0 ? util : 1.0);
    } else {
      total += s.sleep_power_w;
    }
  }
  std::vector<char> pod_lit(snap.pods.size(), 0);
  for (const RackSnapshot& rack : snap.racks) {
    bool lit = false;
    for (const ServerId s : rack.members) lit = lit || count[s] > 0;
    if (lit) {
      total += rack.shared_power_w;
      pod_lit[rack.pod] = 1;
    }
  }
  for (const PodSnapshot& pod : snap.pods) {
    if (pod_lit[pod.id] != 0) total += pod.shared_power_w;
  }
  return total;
}

/// Migration energy (J) of a plan under the bench's cost model, charged by
/// the network tier each move actually crosses.
double plan_cost_j(const DataCenterSnapshot& snap, const PlacementPlan& plan,
                   const MigrationCostModel& cost) {
  double total = 0.0;
  for (const Move& move : plan.moves) {
    if (move.from == datacenter::kNoServer) continue;
    total += cost.energy_j(snap.vm(move.vm).memory_mb, snap.distance(move.from, move.to));
  }
  return total;
}

struct EngineScore {
  std::string name;
  double net_energy_j = 0.0;       ///< power_after * horizon + migration energy
  double power_after_w = 0.0;
  double migration_energy_j = 0.0;
  std::size_t moves = 0;
  std::size_t racks_emptied = 0;
  double rack_switch_off_j = 0.0;  ///< shared draw the emptied racks stop burning
  std::size_t rounds_accepted = 0;
  std::size_t rejected_by_cost = 0;
  std::size_t rejected_by_budget = 0;
};

EngineScore score(const char* name, const DataCenterSnapshot& snap, const IpacReport& report,
                  const MigrationCostModel& cost) {
  EngineScore s;
  s.name = name;
  s.power_after_w = power_after_w(snap, report.plan);
  s.migration_energy_j = plan_cost_j(snap, report.plan, cost);
  s.net_energy_j = s.power_after_w * kHorizonS + s.migration_energy_j;
  s.moves = report.plan.moves.size();
  s.racks_emptied = report.racks_emptied;
  s.rack_switch_off_j = static_cast<double>(report.racks_emptied) * kRackSharedW * kHorizonS;
  s.rounds_accepted = report.rounds_accepted;
  s.rejected_by_cost = report.rounds_rejected_by_cost;
  s.rejected_by_budget = report.rounds_rejected_by_budget;
  return s;
}

Json score_json(const EngineScore& s) {
  return Json::object({{"net_energy_j", s.net_energy_j}, {"power_after_w", s.power_after_w},
                       {"migration_energy_j", s.migration_energy_j}, {"moves", s.moves},
                       {"racks_emptied", s.racks_emptied},
                       {"rack_switch_off_j", s.rack_switch_off_j},
                       {"rounds_accepted", s.rounds_accepted},
                       {"rounds_rejected_by_cost", s.rejected_by_cost},
                       {"rounds_rejected_by_budget", s.rejected_by_budget}});
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool require_win = false;
  std::string out_path = "BENCH_topology.json";
  cli::Parser("ablation_topology [options]")
      .flag("--quick", quick, "shrink the scale fleet to 1k servers (CI smoke)")
      .option("--out", out_path, "PATH", "JSON report path (default BENCH_topology.json)")
      .flag("--require-win", require_win,
            "exit 1 unless the budgeted rack-aware planner's net energy is below the flat "
            "planner's")
      .parse(argc, argv);

  const ConstraintSet constraints = ConstraintSet::standard(1.0);

  // ---- economics: 2 pods x 4 racks x 8 servers, steady-state shape -------
  const DataCenterSnapshot fig = steady_state_fleet(/*seed=*/42);
  DataCenterSnapshot flat_world = fig;
  flat_world.racks.clear();
  flat_world.pods.clear();

  const MigrationCostModel cost_model = rack_options(0.0).cost;
  const double initial_w = power_after_w(fig, PlacementPlan{});

  // Flat planner: blind to racks; its plan is still scored on the racked
  // world (the shared draws exist whether or not the planner models them).
  const IpacReport flat_report = ipac(flat_world, constraints);
  const EngineScore flat = score("flat", fig, flat_report, cost_model);
  // Rack-aware, effectively unbudgeted.
  const IpacReport aware_report =
      ipac(fig, constraints, FreeMigrationPolicy(), {}, rack_options(1e18));
  const EngineScore aware = score("rack_aware", fig, aware_report, cost_model);
  // Rack-aware under a BINDING per-plan migration energy budget: enough
  // for the four straggler drains (both rack switch-offs land), not for
  // the loose-server rounds after them — the report shows the budget
  // rejections.
  const IpacReport budgeted_report =
      ipac(fig, constraints, FreeMigrationPolicy(), {}, rack_options(14500.0));
  const EngineScore budgeted = score("rack_aware_budgeted", fig, budgeted_report, cost_model);

  std::printf("# ablation_topology: net energy over one %gs horizon (racked world)\n",
              kHorizonS);
  std::printf("%-22s %14s %12s %14s %8s %8s %12s\n", "planner", "net_energy_j", "power_w",
              "migration_j", "moves", "racks", "rej c/b");
  for (const EngineScore* s : {&flat, &aware, &budgeted}) {
    std::printf("%-22s %14.1f %12.1f %14.1f %8zu %8zu %7zu/%zu\n", s->name.c_str(),
                s->net_energy_j, s->power_after_w, s->migration_energy_j, s->moves,
                s->racks_emptied, s->rejected_by_cost, s->rejected_by_budget);
  }

  // ---- scale: rack-aware plan time at 10k servers -------------------------
  const std::size_t racks_per_pod = quick ? 5 : 50;
  const DataCenterSnapshot big =
      random_racked_fleet(2, racks_per_pod, 100, quick ? 5000 : 50000, /*seed=*/7);
  const RackAwareOptions big_rack = rack_options(1e18);
  (void)ipac(big, constraints, FreeMigrationPolicy(), {}, big_rack);  // warmup
  const std::size_t reps = quick ? 2 : 3;
  const auto t0 = std::chrono::steady_clock::now();
  IpacReport big_report;
  for (std::size_t r = 0; r < reps; ++r) {
    big_report = ipac(big, constraints, FreeMigrationPolicy(), {}, big_rack);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s_per_plan =
      std::chrono::duration<double>(t1 - t0).count() / static_cast<double>(reps);
  std::printf("rack-aware plan at %zu servers: %.3f s/plan (budget %.0f s), %zu moves\n",
              big.servers.size(), wall_s_per_plan, kBudgetS, big_report.plan.moves.size());

  const bool budgeted_beats_flat = budgeted.net_energy_j < flat.net_energy_j;
  const bool within_budget = wall_s_per_plan <= kBudgetS;

  Json report = cli::bench_report("ablation_topology", quick);
  report
      .set("fig6_fleet", Json::object({{"pods", fig.pods.size()}, {"racks", fig.racks.size()},
                                       {"servers", fig.servers.size()}, {"vms", fig.vms.size()}}))
      .set("horizon_s", kHorizonS)
      .set("initial_power_w", initial_w)
      .set("planners", Json::object({{flat.name, score_json(flat)},
                                     {aware.name, score_json(aware)},
                                     {budgeted.name, score_json(budgeted)}}))
      .set("budgeted_savings_vs_flat_j", flat.net_energy_j - budgeted.net_energy_j)
      .set("budgeted_beats_flat", budgeted_beats_flat)
      .set("scale", Json::object({{"servers", big.servers.size()}, {"vms", big.vms.size()},
                                  {"wall_s_per_plan", wall_s_per_plan}, {"budget_s", kBudgetS},
                                  {"within_budget", within_budget}}));
  if (const int rc = cli::write_report(out_path, report); rc != 0) return rc;

  if (require_win && !budgeted_beats_flat) {
    std::fprintf(stderr,
                 "FAIL: budgeted rack-aware net energy %.1f J >= flat %.1f J\n",
                 budgeted.net_energy_j, flat.net_energy_j);
    return 1;
  }
  return 0;
}
