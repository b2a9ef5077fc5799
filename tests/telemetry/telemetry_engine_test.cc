// Telemetry integration tests: the trace stream reconstructed by
// TraceReader must agree with the engine's own counters bit-for-bit, at any
// worker count, on a real worker pool — and the simulator-level records
// (scheduler picks, CPU charges, syscall reserve ops) must agree with the
// meter. These suites run under TSAN in CI (the rings are single-writer by
// construction; this is where that claim is checked against real threads).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/syscalls.h"
#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// A miniature of the fleet example: `phones` disconnected components, each
// a pool feeding two apps plus a back-tap, so the partitioner finds one
// shard per phone.
void BuildPhones(Simulator& sim, int phones) {
  Kernel& kernel = sim.kernel();
  for (int p = 0; p < phones; ++p) {
    Reserve* pool = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
    pool->Deposit(ToQuantity(Energy::Joules(50.0 + p)));
    Reserve* fg = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "fg");
    Reserve* bg = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "bg");
    Tap* feed_fg = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed_fg",
                                      pool->id(), fg->id());
    feed_fg->SetConstantPower(Power::Milliwatts(100 + p % 3 * 50));
    ASSERT_TRUE(sim.taps().Register(feed_fg->id()));
    Tap* feed_bg = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed_bg",
                                      pool->id(), bg->id());
    feed_bg->SetProportionalRate(0.01);
    ASSERT_TRUE(sim.taps().Register(feed_bg->id()));
    Tap* back = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "back",
                                   fg->id(), pool->id());
    back->SetProportionalRate(0.1);
    ASSERT_TRUE(sim.taps().Register(back->id()));
  }
}

SimConfig FleetConfig(int workers) {
  SimConfig cfg;
  cfg.decay_half_life = Duration::Seconds(10);
  cfg.exec.tap_workers = workers;
  cfg.exec.decay_to_shard_root = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  return cfg;
}

TEST(TelemetryEngineTest, ReaderTotalsMatchEngineBitForBitAcrossWorkerCounts) {
  int64_t reference_tap = 0;
  int64_t reference_decay = 0;
  for (int workers : {0, 1, 2, 4}) {
    Simulator sim(FleetConfig(workers));
    BuildPhones(sim, 12);
    sim.Run(Duration::Seconds(2));
    ASSERT_EQ(sim.taps().shard_count(), 12u);

    sim.telemetry().FlushFrame();
    TraceReader reader = TraceReader::FromDomain(sim.telemetry());
    EXPECT_EQ(reader.dropped(), 0u) << "workers=" << workers;
    // The acceptance bar: offline reconstruction equals the engine exactly.
    EXPECT_EQ(reader.TotalTapFlow(), sim.taps().total_tap_flow()) << "workers=" << workers;
    EXPECT_EQ(reader.TotalDecayFlow(), sim.taps().total_decay_flow())
        << "workers=" << workers;
    EXPECT_GT(reader.TotalTapFlow(), 0);
    EXPECT_GT(reader.TotalDecayFlow(), 0);
    // And the totals themselves are worker-count invariant.
    if (workers == 0) {
      reference_tap = reader.TotalTapFlow();
      reference_decay = reader.TotalDecayFlow();
    } else {
      EXPECT_EQ(reader.TotalTapFlow(), reference_tap) << "workers=" << workers;
      EXPECT_EQ(reader.TotalDecayFlow(), reference_decay) << "workers=" << workers;
    }
  }
}

TEST(TelemetryEngineTest, FlowByShardJoinsPlanAndBatchRecords) {
  Simulator sim(FleetConfig(2));
  BuildPhones(sim, 8);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 8u);
  int64_t tap_sum = 0;
  int64_t decay_sum = 0;
  const auto& stats = sim.taps().shard_stats();
  for (const auto& s : shards) {
    EXPECT_EQ(s.taps, 3u);            // From kPlanShard.
    EXPECT_EQ(s.decay_reserves, 3u);  // Pool/fg/bg all decay-wired.
    EXPECT_GT(s.batches, 0u);
    // Per-shard flows agree with the engine's own per-shard stats.
    ASSERT_LT(s.shard, stats.size());
    EXPECT_EQ(s.tap_flow, stats[s.shard].tap_flow);
    EXPECT_EQ(s.decay_flow, stats[s.shard].decay_flow);
    tap_sum += s.tap_flow;
    decay_sum += s.decay_flow;
  }
  EXPECT_EQ(tap_sum, reader.TotalTapFlow());
  EXPECT_EQ(decay_sum, reader.TotalDecayFlow());
}

TEST(TelemetryEngineTest, BoundarySettleRecordsAccountCutSettlement) {
  // A charged relay chain is one component whose every tap is a bridge; a
  // cut threshold carves it into bounded sub-shards, and every batch then
  // emits one kBoundarySettle record from the serial settlement.
  SimConfig cfg = FleetConfig(2);
  cfg.exec.shard_cut_threshold = 16;
  Simulator sim(cfg);
  Kernel& kernel = sim.kernel();
  Reserve* prev = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "head");
  prev->Deposit(ToQuantity(Energy::Joules(4000.0)));
  for (int i = 1; i <= 96; ++i) {
    Reserve* next = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "hop");
    next->Deposit(ToQuantity(Energy::Joules(3.0 + i % 7)));
    Tap* relay = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "relay",
                                    prev->id(), next->id());
    relay->SetConstantPower(Power::Milliwatts(1 + (i * 5) % 17));
    ASSERT_TRUE(sim.taps().Register(relay->id()));
    prev = next;
  }
  sim.Run(Duration::Seconds(2));
  const uint64_t cuts = sim.taps().boundary_cut_count();
  ASSERT_GT(cuts, 0u);
  // Every hop is funded, so settlement stays on the lane path throughout.
  ASSERT_FALSE(sim.taps().AnyCutParentFused());

  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  ASSERT_EQ(reader.dropped(), 0u);
  EXPECT_GT(reader.BoundarySettles(), 0u);
  EXPECT_EQ(reader.FusedSettles(), 0u);
  // One settle per cut parent per batch (the chain is one parent), each
  // applying every one of its boundary lanes.
  EXPECT_EQ(reader.BoundaryLanesApplied(), reader.BoundarySettles() * cuts);
  // Boundary flow crossed the cuts and is a subset of the engine-exact total.
  EXPECT_GT(reader.BoundaryFlow(), 0);
  EXPECT_LE(reader.BoundaryFlow(), reader.TotalTapFlow());
  EXPECT_EQ(reader.TotalTapFlow(), sim.taps().total_tap_flow());
  EXPECT_EQ(reader.TotalDecayFlow(), sim.taps().total_decay_flow());
}

TEST(TelemetryEngineTest, ShardTimelineCumulatesToShardTotal) {
  Simulator sim(FleetConfig(2));
  BuildPhones(sim, 4);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 4u);
  for (const auto& s : shards) {
    const auto timeline = reader.ShardTimeline(s.shard);
    ASSERT_EQ(timeline.size(), s.batches);
    int64_t running_tap = 0;
    int64_t running_decay = 0;
    uint64_t prev_frame = 0;
    int64_t prev_time = -1;
    for (const auto& point : timeline) {
      running_tap += point.tap_flow;
      running_decay += point.decay_flow;
      EXPECT_EQ(point.cumulative_tap_flow, running_tap);
      EXPECT_EQ(point.cumulative_decay_flow, running_decay);
      // Frames and the epoch stamps advance monotonically.
      EXPECT_GE(point.frame, prev_frame);
      EXPECT_GT(point.time_us, prev_time);
      prev_frame = point.frame;
      prev_time = point.time_us;
    }
    EXPECT_EQ(running_tap, s.tap_flow);
    EXPECT_EQ(running_decay, s.decay_flow);
  }
}

TEST(TelemetryEngineTest, DispatchRecordsCoverEveryPooledTicket) {
  // Enough phones (weight 6 each: 3 taps, 3 decay reserves) to pack into
  // several work units, so the batches run on the pool.
  Simulator sim(FleetConfig(3));
  BuildPhones(sim, 600);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  ASSERT_EQ(reader.dropped(), 0u);

  const auto& tickets = sim.taps().pass1_tickets();
  ASSERT_GE(tickets.size(), 2u);
  const uint32_t shards = sim.taps().shard_count();
  ASSERT_EQ(shards, 600u);
  uint64_t batches = 0;
  for (const auto& s : reader.FlowByShard()) {
    batches += s.batches;
  }
  ASSERT_GT(batches, 0u);
  ASSERT_EQ(batches % shards, 0u);
  uint64_t dispatches = 0;
  uint64_t shard_runs = 0;
  for (const auto& w : reader.WorkerLoads()) {
    dispatches += w.dispatches;
    shard_runs += w.shard_runs;
  }
  // One dispatch per work unit per batch, and each unit's one timing record
  // counts every shard it ran: one timed shard run per shard-batch.
  EXPECT_EQ(dispatches, tickets.size() * (batches / shards));
  EXPECT_EQ(shard_runs, batches);
}

TEST(TelemetryEngineTest, FineGrainedTapFlowsSumToEngineTotal) {
  SimConfig cfg = FleetConfig(2);
  cfg.telemetry.record_mask = kAllRecordsMask;
  Simulator sim(cfg);
  BuildPhones(sim, 4);
  sim.Run(Duration::Seconds(1));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto taps = reader.TapFlows();
  ASSERT_EQ(taps.size(), 12u);  // 3 taps per phone, ids joined from kPlanTap.
  int64_t per_tap_sum = 0;
  for (const auto& t : taps) {
    EXPECT_GT(t.tap_id, 0u);
    EXPECT_NE(t.src_id, 0u);
    EXPECT_NE(t.dst_id, 0u);
    EXPECT_NE(t.src_id, t.dst_id);
    per_tap_sum += t.flow;
  }
  // Every nanojoule of tap flow is attributed to exactly one tap.
  EXPECT_EQ(per_tap_sum, sim.taps().total_tap_flow());
}

TEST(TelemetryEngineTest, SingleShardFastPathStillStreamsRecords) {
  // One phone, no executor: the unsharded engine's one whole-shard ticket,
  // run in the caller. The stream must stay complete and exact anyway.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.decay_half_life = Duration::Seconds(10);
  Simulator sim(cfg);
  BuildPhones(sim, 1);
  sim.Run(Duration::Seconds(2));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.dropped(), 0u);
  EXPECT_EQ(reader.TotalTapFlow(), sim.taps().total_tap_flow());
  EXPECT_EQ(reader.TotalDecayFlow(), sim.taps().total_decay_flow());
  const auto shards = reader.FlowByShard();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_GT(shards[0].batches, 0u);
}

TEST(TelemetrySimulatorTest, CpuChargesMatchMeterExactly) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  auto proc = sim.CreateProcess("worker");
  ObjectId res = ReserveCreate(k, *boot, proc.container, Label(Level::k1), "r").value();
  ASSERT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), res,
                            ToQuantity(Energy::Joules(50.0))),
            Status::kOk);
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(res);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());

  sim.Run(Duration::Seconds(5));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());

  const auto charges = reader.CpuChargeByThread();
  ASSERT_EQ(charges.size(), 1u);
  EXPECT_EQ(charges[0].thread, static_cast<uint32_t>(proc.thread));
  EXPECT_GT(charges[0].quanta, 0u);
  EXPECT_EQ(charges[0].billed,
            sim.meter().ForPrincipalComponent(proc.thread, Component::kCpu).nj());
  // Every quantum made a scheduling decision, and it always found the spin
  // thread runnable.
  EXPECT_EQ(reader.SchedPicks(), 5000u);
  EXPECT_EQ(reader.SchedIdlePicks(), 0u);
  EXPECT_EQ(charges[0].quanta, 5000u);
}

TEST(TelemetrySimulatorTest, SchedPickRecordsIdleWhenNoThreadHasEnergy) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  auto proc = sim.CreateProcess("starved");
  // A runnable body whose active reserve stays empty: picked never.
  ObjectId res =
      ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "empty").value();
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(res);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());

  sim.Run(Duration::Millis(100));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 100u);
  EXPECT_EQ(reader.SchedIdlePicks(), 100u);
  EXPECT_TRUE(reader.CpuChargeByThread().empty());
}

TEST(TelemetrySimulatorTest, SyscallReserveOpsAreRecordedWithLevels) {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  ObjectId a = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "a").value();
  ObjectId b = ReserveCreate(k, *boot, k.root_container_id(), Label(Level::k1), "b").value();
  ASSERT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), a, 1000), Status::kOk);
  ASSERT_EQ(ReserveTransfer(k, *boot, a, b, 400), Status::kOk);
  ASSERT_EQ(ReserveConsume(k, *boot, b, 150), Status::kOk);
  // Failed ops must not be recorded.
  ASSERT_NE(ReserveConsume(k, *boot, b, 1 << 30), Status::kOk);

  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  struct Op {
    RecordKind kind;
    uint32_t actor;
    uint8_t flags;
    int64_t amount;
    int64_t level_after;
  };
  std::vector<Op> ops;
  for (const TraceRecord& r : reader.records()) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kReserveDeposit) ||
        r.kind == static_cast<uint8_t>(RecordKind::kReserveWithdraw)) {
      ops.push_back({static_cast<RecordKind>(r.kind), r.actor, r.flags, r.v0, r.v1});
    }
  }
  ASSERT_EQ(ops.size(), 5u);  // 2 per transfer (x2) + 1 consume + 0 failed.
  // The a -> b transfer: withdraw from a at level 600, deposit to b at 400.
  EXPECT_EQ(ops[2].kind, RecordKind::kReserveWithdraw);
  EXPECT_EQ(ops[2].actor, static_cast<uint32_t>(a));
  EXPECT_EQ(ops[2].flags, kReserveOpTransfer);
  EXPECT_EQ(ops[2].amount, 400);
  EXPECT_EQ(ops[2].level_after, 600);
  EXPECT_EQ(ops[3].kind, RecordKind::kReserveDeposit);
  EXPECT_EQ(ops[3].actor, static_cast<uint32_t>(b));
  EXPECT_EQ(ops[3].amount, 400);
  EXPECT_EQ(ops[3].level_after, 400);
  EXPECT_EQ(ops[4].kind, RecordKind::kReserveWithdraw);
  EXPECT_EQ(ops[4].flags, kReserveOpConsume);
  EXPECT_EQ(ops[4].amount, 150);
  EXPECT_EQ(ops[4].level_after, 250);
}

TEST(TelemetrySimulatorTest, EmptyRunQueueStillEmitsIdlePickRecords) {
  // No process ever registers with the scheduler, so PickNext takes its
  // empty-queue early return — which must still emit the actor-0 idle record
  // per EmitPick's contract (one kSchedPick per scheduling decision, pinned
  // here so the record stream never has silent gaps on an idle kernel).
  // Disable planning so every quantum exercises the PickNext path itself.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.exec.sched_plan_quanta = 0;
  Simulator sim(cfg);
  sim.Run(Duration::Millis(100));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 100u);
  EXPECT_EQ(reader.SchedIdlePicks(), 100u);
  EXPECT_EQ(reader.SchedPlannedPicks(), 0u);
}

TEST(TelemetrySimulatorTest, PlannedPicksCarryTheFlagAndBuildRecords) {
  // Under the default batched stepper, replayed quanta keep emitting one
  // kSchedPick each — distinguished only by the planned flag — and each
  // BuildPlan emits one kSchedPlanBuild whose v0 sums to the planned total.
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.decay_enabled = false;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  auto proc = sim.CreateProcess("spin");
  ObjectId r =
      ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "r").value();
  ASSERT_EQ(ReserveTransfer(k, *sim.boot_thread(), sim.battery_reserve_id(), r,
                            ToQuantity(Energy::Joules(10.0))),
            Status::kOk);
  k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  sim.Run(Duration::Seconds(2));
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.SchedPicks(), 2000u);  // One record per quantum, planned or not.
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_GT(stats.plans_built, 0u);
  EXPECT_EQ(reader.SchedPlannedPicks(), stats.quanta_replayed);
  EXPECT_EQ(reader.SchedPlanBuilds(), stats.plans_built);
  EXPECT_GE(reader.SchedPlannedQuanta(), reader.SchedPlannedPicks());
}

TEST(TelemetryConfigTest, DisabledByDefaultAndInert) {
  Simulator sim;
  EXPECT_FALSE(sim.telemetry().enabled());
  sim.Run(Duration::Millis(50));
  EXPECT_EQ(sim.telemetry().spill_size(), 0u);
  EXPECT_EQ(sim.telemetry().frames_flushed(), 0u);
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_TRUE(reader.records().empty());
}

}  // namespace
}  // namespace cinder
