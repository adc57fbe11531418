// Sharded-engine equivalence suite (the differential oracle of the
// sharding work).
//
// The engine partitions the applications into N >= 1 shards, each with its
// own event loop, telemetry recorder, and sensor-fault stream, advanced
// concurrently between control-period barriers. The contract is strict
// determinism: a run at ANY shard count and ANY thread count reproduces
// the committed goldens under tests/golden/sharding_*.csv byte for byte —
// same telemetry, annotations, consolidation decisions, and fault
// counters. Those goldens were recorded by the retired single-event-loop
// engine, so they remain an independent oracle for the barrier protocol —
// which is also why they must not be regenerated with VDC_REGEN_GOLDEN: a
// regen would make the sharded engine its own oracle.
// The scenarios cover the healthy optimizer path, a chaos plan touching
// every shard-relevant fault family, horizontal replication (whose retire
// callbacks cross the shard boundary), and external schedules.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sysid_experiment.hpp"
#include "fault/plan.hpp"
#include "golden.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"

namespace vdc {
namespace {

// ---- ShardedEngine unit behavior --------------------------------------------

TEST(ShardedEngine, ZeroShardsIsRejected) {
  // There is no single-loop mode: every engine has at least one shard loop
  // next to the spine, so a zero count is a configuration error.
  EXPECT_THROW(sim::ShardedEngine(0), std::invalid_argument);
  EXPECT_THROW(sim::ShardedEngine(0, 4), std::invalid_argument);
}

TEST(ShardedEngine, ShardsAreDistinctLoops) {
  sim::ShardedEngine engine(3, 1);
  EXPECT_EQ(engine.shard_count(), 3u);
  EXPECT_NE(&engine.shard(0), &engine.spine());
  EXPECT_NE(&engine.shard(0), &engine.shard(1));
  EXPECT_NE(&engine.shard(1), &engine.shard(2));
}

TEST(ShardedEngine, BarrierOrderRunsShardEventsBeforeSpineAtEqualTime) {
  // The tie-break policy: at a barrier time T, every shard is advanced
  // through T before the spine executes its own events at T. A spine event
  // at T must therefore observe the effects of shard events at T.
  sim::ShardedEngine engine(2, 1);
  std::vector<int> order;
  engine.shard(0).schedule(10.0, [&] { order.push_back(0); });
  engine.shard(1).schedule(10.0, [&] { order.push_back(1); });
  engine.spine().schedule(10.0, [&] { order.push_back(2); });
  engine.run_until(20.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(engine.barriers(), 1u);
}

TEST(ShardedEngine, SpineEventsChainAcrossBarriers) {
  // A spine event that schedules a follow-up spawns a new barrier; shard
  // work in between must be drained up to each barrier time in turn.
  sim::ShardedEngine engine(2, 1);
  std::vector<double> shard_times;
  for (double t = 1.0; t < 10.0; t += 1.0) {
    engine.shard(0).schedule(t, [&, t] { shard_times.push_back(t); });
  }
  int ticks = 0;
  std::function<void()> tick = [&] {
    // Every shard event at or before this barrier has already run.
    EXPECT_EQ(shard_times.size(), static_cast<std::size_t>(ticks) * 3 + 3);
    ++ticks;
    if (ticks < 3) engine.spine().schedule_after(3.0, tick);
  };
  engine.spine().schedule(3.0, tick);
  engine.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(shard_times.size(), 9u);
  EXPECT_EQ(engine.barriers(), 3u);
}

TEST(ShardedEngine, NanOrPastEndTimeIsRejectedNotLooped) {
  // The spine tick reschedules itself forever, so a NaN end time (which
  // compares false against every event time) would never reach a barrier
  // past it.
  sim::ShardedEngine engine(2, 1);
  std::function<void()> tick = [&] { engine.spine().schedule_after(1.0, tick); };
  engine.spine().schedule(1.0, tick);
  EXPECT_THROW(engine.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(engine.events_executed(), 0u);
  engine.run_until(2.0);
  EXPECT_THROW(engine.run_until(1.0), std::invalid_argument);
}

TEST(ShardedEngine, CountersAggregateAcrossLoops) {
  sim::ShardedEngine engine(2, 1);
  engine.shard(0).schedule(1.0, [] {});
  engine.shard(1).schedule(2.0, [] {});
  engine.spine().schedule(3.0, [] {});
  EXPECT_EQ(engine.pending_events(), 3u);
  engine.run_until(5.0);
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(ShardedEngine, NextEventTimeSkipsCancelledEntries) {
  sim::Simulation sim;
  const sim::EventId early = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 1.0);
  sim.cancel(early);
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 2.0);
  sim.run_until(3.0);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

// ---- Testbed equivalence: every layout == the committed golden -------------

/// One identification run shared by every scenario below (the controllers
/// are instances of the same benchmark app, as on the paper's testbed).
const control::ArxModel& shared_model() {
  static const core::SysIdExperimentResult identified = [] {
    core::SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return core::identify_app_model(app::default_two_tier_app("shard", 2001, 40), sysid);
  }();
  return identified.model;
}

core::ScenarioSpec base_spec() {
  core::ScenarioSpec spec;
  spec.name = "shard-equivalence";
  spec.engine = core::ScenarioSpec::Engine::kTestbed;
  spec.testbed.num_apps = 4;
  spec.testbed.num_servers = 3;
  spec.testbed.enable_optimizer = true;
  spec.testbed.optimizer_period_s = 120.0;
  spec.model = shared_model();
  spec.seed = 7;
  spec.duration_s = 400.0;
  return spec;
}

/// Everything the equivalence contract covers, as golden text: the
/// control-plane and fault counters, the annotation table, then the full
/// telemetry export.
std::string golden_text(const core::ScenarioResult& r) {
  const fault::FaultCounters& f = r.faults;
  std::ostringstream out;
  out << "counter,value\n"
      << "completed_migrations," << r.completed_migrations << '\n'
      << "optimizer_invocations," << r.optimizer_invocations << '\n'
      << "failed_migrations," << r.failed_migrations << '\n'
      << "vm_restarts," << r.vm_restarts << '\n'
      << "stale_holds," << r.stale_holds << '\n'
      << "scale_outs," << r.scale_outs << '\n'
      << "scale_ins," << r.scale_ins << '\n'
      << "faults.total," << f.total() << '\n'
      << "faults.migration_aborts," << f.migration_aborts << '\n'
      << "faults.migration_slowdowns," << f.migration_slowdowns << '\n'
      << "faults.wake_failures," << f.wake_failures << '\n'
      << "faults.server_crashes," << f.server_crashes << '\n'
      << "faults.sensor_drops," << f.sensor_drops << '\n'
      << "faults.sensor_spikes," << f.sensor_spikes << '\n'
      << "faults.stale_periods," << f.stale_periods << '\n'
      << "faults.dvfs_pins," << f.dvfs_pins << '\n'
      << "faults.rack_failures," << f.rack_failures << '\n'
      << "# annotations\n"
      << telemetry::annotations_csv(r.recorder) << "# telemetry\n"
      << telemetry::to_csv(r.recorder);
  return out.str();
}

/// Runs `spec` at the given shard layout, checks it against `golden`, and
/// returns the result for scenario-specific sanity checks.
core::ScenarioResult expect_golden(core::ScenarioSpec spec, std::size_t shards,
                                   std::size_t threads, const std::string& golden) {
  SCOPED_TRACE(golden + " shards=" + std::to_string(shards) +
               " threads=" + std::to_string(threads));
  spec.testbed.shards = shards;
  spec.testbed.shard_threads = threads;
  core::ScenarioResult result = core::ScenarioRunner().run(spec);
  check_golden(golden, golden_text(result));
  return result;
}

TEST(ShardingEquivalence, OptimizerRunMatchesLegacyAtEveryShardAndThreadCount) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const core::ScenarioResult result =
          expect_golden(base_spec(), shards, threads, "sharding_optimizer.csv");
      EXPECT_GT(result.optimizer_invocations, 0u);
    }
  }
}

TEST(ShardingEquivalence, ChaosRunMatchesLegacyAcrossShardCounts) {
  // Every shard-relevant fault family at once: per-app sensor streams
  // (drop/spike/stale draw from splitmix64-derived per-app RNGs, so the
  // sequences cannot depend on the shard layout), plus spine-serial dc
  // faults (crash, DVFS pin, migration aborts) that must interleave with
  // the shard barriers exactly as in the single-loop recording.
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-chaos";
  spec.faults.seed = 99;
  spec.faults.sensor_dropout(40.0, 200.0, 0.2, 1);
  spec.faults.sensor_spikes(80.0, 240.0, 3.0, 0.15, 2);
  spec.faults.sensor_stale(120.0, 160.0, 0);
  spec.faults.server_crash(1, 150.0, 260.0);
  spec.faults.dvfs_pin(0, 1.2, 60.0, 300.0);
  spec.faults.migration_aborts(0.0, 400.0, 0.5);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const core::ScenarioResult result = expect_golden(spec, shards, 4, "sharding_chaos.csv");
    EXPECT_GT(result.faults.total(), 0u);
  }
}

TEST(ShardingEquivalence, ReplicatedRunMatchesLegacy) {
  // initial_replicas > 1 activates the replica telemetry and the
  // cross-shard retire path (drained replicas tombstone their cluster VM
  // from inside the shard advance, under the testbed's retire mutex).
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-replication";
  spec.testbed.initial_replicas = 2;
  spec.testbed.supervisor.enabled = true;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    expect_golden(spec, shards, 4, "sharding_replication.csv");
  }
}

TEST(ShardingEquivalence, ScheduleEventsLandInTheSerialPhase) {
  // External setpoint/concurrency schedules go to the spine; at a shard
  // count that splits the apps they must still produce the golden's bytes.
  core::ScenarioSpec spec = base_spec();
  spec.name = "shard-schedules";
  spec.setpoint_schedule.push_back({200.0, 1, 0.6});
  spec.concurrency_schedule.push_back({240.0, 3, 60});

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    expect_golden(spec, shards, 2, "sharding_schedules.csv");
  }
}

TEST(ShardingEquivalence, ShardCountAboveAppCountIsHarmless) {
  // More shards than apps leaves some shards empty; empty loops must not
  // disturb the barrier protocol or the merged recorder layout.
  expect_golden(base_spec(), 8, 2, "sharding_optimizer.csv");
}

}  // namespace
}  // namespace vdc
