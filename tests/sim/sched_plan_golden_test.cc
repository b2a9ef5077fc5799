// Golden bit-identity tests for quantum-batched scheduling (PR 9).
//
// The K-quanta run-plan path is an execution strategy, never a semantic
// change: for any sched_plan_quanta setting the simulator must produce
// bit-identical reserve levels, meter totals, thread quanta counters, and
// scheduler pick order to the plan-free (K = 0) reference — including runs
// where timed callbacks mutate the object graph mid-plan and bodies issue
// out-of-band deposits from inside a replayed stretch. These suites are the
// acceptance bar named in docs/PERFORMANCE.md "PR 9".
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/syscalls.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// Everything the scheduler and billing paths can influence, captured after a
// run: compared with EXPECT_EQ so any divergence is a hard failure.
struct RunFingerprint {
  std::vector<Quantity> reserve_levels;
  std::vector<int64_t> thread_quanta;  // quanta_run, quanta_denied pairs.
  std::vector<uint32_t> pick_order;    // kSchedPick actors in stream order.
  int64_t battery_level = 0;
  int64_t true_energy_nj = 0;
  int64_t baseline_meter_nj = 0;
  int64_t cpu_meter_nj = 0;

  bool operator==(const RunFingerprint& o) const {
    return reserve_levels == o.reserve_levels && thread_quanta == o.thread_quanta &&
           pick_order == o.pick_order && battery_level == o.battery_level &&
           true_energy_nj == o.true_energy_nj && baseline_meter_nj == o.baseline_meter_nj &&
           cpu_meter_nj == o.cpu_meter_nj;
  }
};

// A mixed fleet exercising every plan end/cut path: a steady spinner (full
// plans), a thread that starves mid-run and is refilled by a timed callback
// (out-of-band deposit cutting a live plan), a permanently energyless thread
// (denied entries), a periodic sleeper (sleeper horizon + wake replay), a
// body that moves energy via syscalls every 64th quantum (reserve-op epoch
// bumps from inside a replayed stretch), a process created mid-run (mutation
// epoch bump), flowing taps + decay (batch-boundary horizon capping), and a
// radio transmit (timed-callback stretch breaks).
RunFingerprint RunMixedFleet(uint32_t plan_quanta) {
  SimConfig cfg;
  cfg.decay_half_life = Duration::Seconds(10);
  cfg.exec.sched_plan_quanta = plan_quanta;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.backlight_on = true;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();

  auto fund = [&](ObjectId proc_container, Energy e, const char* name) {
    ObjectId r = ReserveCreate(k, *boot, proc_container, Label(Level::k1), name).value();
    if (e.nj() > 0) {
      EXPECT_EQ(ReserveTransfer(k, *boot, sim.battery_reserve_id(), r, ToQuantity(e)),
                Status::kOk);
    }
    return r;
  };

  auto spin = sim.CreateProcess("spin");
  ObjectId spin_r = fund(spin.container, Energy::Joules(50.0), "spin_r");
  k.LookupTyped<Thread>(spin.thread)->set_active_reserve(spin_r);
  sim.AttachBody(spin.thread, std::make_unique<SpinBody>());

  auto starve = sim.CreateProcess("starve");
  // 137 mJ = ~1 s of CPU; empties mid-run, refilled at t = 2 s below.
  ObjectId starve_r = fund(starve.container, Energy::Millijoules(137), "starve_r");
  k.LookupTyped<Thread>(starve.thread)->set_active_reserve(starve_r);
  sim.AttachBody(starve.thread, std::make_unique<SpinBody>());

  auto empty = sim.CreateProcess("empty");
  ObjectId empty_r = fund(empty.container, Energy::Joules(0.0), "empty_r");
  k.LookupTyped<Thread>(empty.thread)->set_active_reserve(empty_r);
  sim.AttachBody(empty.thread, std::make_unique<SpinBody>());

  auto sleeper = sim.CreateProcess("sleeper");
  ObjectId sleeper_r = fund(sleeper.container, Energy::Joules(10.0), "sleeper_r");
  k.LookupTyped<Thread>(sleeper.thread)->set_active_reserve(sleeper_r);
  sim.AttachBody(sleeper.thread, MakeBody([](QuantumContext& ctx) {
                   ctx.thread.SleepUntil(ctx.now + Duration::Millis(37));
                 }));

  auto mover = sim.CreateProcess("mover");
  ObjectId mover_r = fund(mover.container, Energy::Joules(10.0), "mover_r");
  ObjectId side_r = fund(mover.container, Energy::Joules(1.0), "side_r");
  k.LookupTyped<Thread>(mover.thread)->set_active_reserve(mover_r);
  sim.AttachBody(mover.thread, MakeBody([mover_r, side_r, n = 0](QuantumContext& ctx) mutable {
                   if (++n % 64 == 0) {
                     // Out-of-band reserve op from inside a replayed stretch.
                     (void)ReserveTransfer(ctx.kernel, ctx.thread, mover_r, side_r, 1000);
                   }
                 }));

  // A flowing tap so batches move flow (exercises the batch-boundary cap).
  ObjectId tapped_r = fund(k.root_container_id(), Energy::Joules(0.0), "tapped_r");
  ObjectId tap = TapCreate(k, sim.taps(), *boot, k.root_container_id(),
                           sim.battery_reserve_id(), tapped_r, Label(Level::k1), "feed")
                     .value();
  EXPECT_EQ(TapSetConstantPower(k, *boot, tap, Power::Milliwatts(30)), Status::kOk);

  sim.ScheduleAfter(Duration::Millis(700), [&] { sim.RadioTransmit(256); });
  sim.ScheduleAfter(Duration::Millis(1200), [&] {
    // Mid-run topology mutation: a new runnable process joins the fleet.
    auto late = sim.CreateProcess("late");
    ObjectId late_r = fund(late.container, Energy::Joules(20.0), "late_r");
    k.LookupTyped<Thread>(late.thread)->set_active_reserve(late_r);
    sim.AttachBody(late.thread, std::make_unique<SpinBody>());
  });
  sim.ScheduleAfter(Duration::Seconds(2), [&] {
    // Out-of-band deposit into the starved reserve while a plan may hold
    // certain-denied entries for it: the epoch guard must cut the plan.
    (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), starve_r,
                          ToQuantity(Energy::Millijoules(500)));
  });

  sim.Run(Duration::Seconds(3));

  RunFingerprint fp;
  for (ObjectId r : {spin_r, starve_r, empty_r, sleeper_r, mover_r, side_r, tapped_r}) {
    fp.reserve_levels.push_back(k.LookupTyped<Reserve>(r)->level());
  }
  for (const auto& entry : sim.scheduler().threads()) {
    const Thread* t = k.LookupTyped<Thread>(entry);
    fp.thread_quanta.push_back(t->quanta_run());
    fp.thread_quanta.push_back(t->quanta_denied());
  }
  fp.battery_level = sim.battery_reserve()->level();
  fp.true_energy_nj = sim.total_true_energy().nj();
  fp.baseline_meter_nj = sim.meter().ForComponent(Component::kBaseline).nj();
  fp.cpu_meter_nj = sim.meter().ForComponent(Component::kCpu).nj();

  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  EXPECT_EQ(reader.dropped(), 0u);
  for (const TraceRecord& r : reader.records()) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kSchedPick)) {
      fp.pick_order.push_back(r.actor);
    }
  }
  EXPECT_EQ(fp.pick_order.size(), 3000u) << "one pick record per quantum, K=" << plan_quanta;

  if (plan_quanta > 0) {
    // Non-vacuity: the batched runs really did build and replay plans.
    const SchedPlanStats& stats = sim.scheduler().plan_stats();
    EXPECT_GT(stats.plans_built, 0u) << "K=" << plan_quanta;
    EXPECT_GT(stats.quanta_replayed, 0u) << "K=" << plan_quanta;
    EXPECT_EQ(reader.aggregate().SchedPlannedPicks(), stats.quanta_replayed);
    EXPECT_EQ(reader.aggregate().SchedPlanBuilds(), stats.plans_built);
  } else {
    EXPECT_EQ(sim.scheduler().plan_stats().plans_built, 0u);
    EXPECT_EQ(reader.aggregate().SchedPlannedPicks(), 0u);
  }
  return fp;
}

TEST(SchedPlanGoldenTest, BatchedRunsBitIdenticalToPlanFreeAtEveryK) {
  const RunFingerprint reference = RunMixedFleet(0);
  ASSERT_FALSE(reference.pick_order.empty());
  for (uint32_t plan_quanta : {1u, 4u, 16u, 64u}) {
    const RunFingerprint batched = RunMixedFleet(plan_quanta);
    EXPECT_TRUE(batched == reference) << "K=" << plan_quanta;
    // On mismatch, pinpoint the divergence for the log.
    EXPECT_EQ(batched.reserve_levels, reference.reserve_levels) << "K=" << plan_quanta;
    EXPECT_EQ(batched.thread_quanta, reference.thread_quanta) << "K=" << plan_quanta;
    EXPECT_EQ(batched.pick_order, reference.pick_order) << "K=" << plan_quanta;
    EXPECT_EQ(batched.battery_level, reference.battery_level) << "K=" << plan_quanta;
    EXPECT_EQ(batched.true_energy_nj, reference.true_energy_nj) << "K=" << plan_quanta;
    EXPECT_EQ(batched.baseline_meter_nj, reference.baseline_meter_nj) << "K=" << plan_quanta;
    EXPECT_EQ(batched.cpu_meter_nj, reference.cpu_meter_nj) << "K=" << plan_quanta;
  }
}

TEST(SchedPlanGoldenTest, StepNeverPlans) {
  // Step() is the single-quantum public API; it must stay plan-free so
  // callers single-stepping a simulator observe the classic path.
  Simulator sim;
  auto proc = sim.CreateProcess("spin");
  ObjectId r = ReserveCreate(sim.kernel(), *sim.boot_thread(), proc.container, Label(Level::k1),
                             "r")
                   .value();
  (void)ReserveTransfer(sim.kernel(), *sim.boot_thread(), sim.battery_reserve_id(), r,
                        ToQuantity(Energy::Joules(1.0)));
  sim.kernel().LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
  sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  for (int i = 0; i < 50; ++i) {
    sim.Step();
  }
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_EQ(stats.plans_built, 0u);
  EXPECT_EQ(stats.quanta_replayed, 0u);
  EXPECT_EQ(stats.single_step_picks, 50u);
}

TEST(SchedPlanGoldenTest, IdleFleetReplaysFullPlans) {
  // The perf-motivating case: an idle-heavy fleet (every thread blocked or
  // energyless) should replay nearly every quantum from plans, with plan
  // builds amortized across the full horizon.
  SimConfig cfg;
  cfg.decay_enabled = false;
  cfg.exec.sched_plan_quanta = 64;
  Simulator sim(cfg);
  Kernel& k = sim.kernel();
  for (int i = 0; i < 8; ++i) {
    auto proc = sim.CreateProcess("idle" + std::to_string(i));
    ObjectId r =
        ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "r").value();
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);  // Empty: denied forever.
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
  }
  sim.Run(Duration::Seconds(2));
  const SchedPlanStats& stats = sim.scheduler().plan_stats();
  EXPECT_GT(stats.plans_built, 0u);
  EXPECT_GT(stats.quanta_replayed, 0u);
  const uint64_t total = stats.quanta_replayed + stats.single_step_picks;
  EXPECT_EQ(total, 2000u);
  // At least 90% of quanta came from plans (build quanta are replays too).
  EXPECT_GT(stats.quanta_replayed * 10, total * 9);
}

}  // namespace
}  // namespace cinder
