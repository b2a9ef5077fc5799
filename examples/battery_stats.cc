// Energy visibility: the per-application battery report the paper's
// introduction holds up as the state of the art (Android's battery UI) —
// except here the numbers come from Cinder's first-class accounting, so
// work a daemon performs on an app's behalf is attributed to the app, not
// to the daemon (sections 1, 2 and 5.5.1).
//
// Since PR 7 the CPU column is reconstructed from the telemetry stream
// (kCpuCharge records queried through TraceReader) rather than read out of
// the EnergyMeter, and the example cross-checks the two sources: the trace
// is a complete record of scheduler billing, so they must agree exactly.
//
// Workload: a foreground game, a background mail poller (whose radio use is
// mostly netd activations), and a navigation app holding a GPS session.
#include <cstdio>

#include "src/apps/poller.h"
#include "src/arm9/rild.h"
#include "src/core/syscalls.h"
#include "src/telemetry/trace_reader.h"

using namespace cinder;

int main() {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  // 10 sim-minutes bills ~600k quanta; the exact cross-check below needs
  // every kCpuCharge record, so grow the spill instead of dropping oldest.
  cfg.telemetry.spill_grow = true;
  Simulator sim(cfg);
  NetdService netd(&sim, NetdMode::kCooperative);
  SmddService smdd(&sim);
  RildService rild(&sim, &smdd);
  Kernel& k = sim.kernel();
  Thread* boot = sim.boot_thread();
  sim.set_backlight(true);  // Screen on: someone is playing.

  // The game: CPU-hungry, foreground-funded.
  auto game = sim.CreateProcess("game");
  ObjectId game_res = ReserveCreate(k, *boot, game.container, Label(Level::k1), "r").value();
  ObjectId game_tap = TapCreate(k, sim.taps(), *boot, game.container,
                                sim.battery_reserve_id(), game_res, Label(Level::k1), "t")
                          .value();
  (void)TapSetConstantPower(k, *boot, game_tap, Power::Milliwatts(137));
  k.LookupTyped<Thread>(game.thread)->set_active_reserve(game_res);
  sim.AttachBody(game.thread, std::make_unique<SpinBody>());

  // The mail poller: radio-hungry, rate-limited.
  PollerApp::Config mail_cfg;
  mail_cfg.name = "mail";
  mail_cfg.poll_interval = Duration::Seconds(60);
  mail_cfg.tap_rate = Power::Milliwatts(158);
  PollerApp mail(&sim, &netd, mail_cfg);

  // Navigation: holds the GPS for the whole drive.
  auto nav = sim.CreateProcess("nav");
  ObjectId nav_res = ReserveCreate(k, *boot, nav.container, Label(Level::k1), "r").value();
  (void)ReserveTransfer(k, *boot, sim.battery_reserve_id(), nav_res,
                        ToQuantity(Energy::Joules(120.0)));
  Thread* nav_thread = k.LookupTyped<Thread>(nav.thread);
  nav_thread->set_active_reserve(nav_res);
  (void)rild.GpsStart(*nav_thread);

  const Duration window = Duration::Minutes(10);
  sim.Run(window);
  (void)rild.GpsStop(*nav_thread);

  // CPU attribution from the trace: one kCpuCharge record per billed
  // quantum, summed per thread offline.
  sim.telemetry().FlushFrame();
  TraceReader reader = TraceReader::FromDomain(sim.telemetry());
  const auto charges = reader.aggregate().CpuChargeByThread();
  auto traced_cpu_nj = [&charges](ObjectId thread) -> int64_t {
    for (const auto& c : charges) {
      if (c.thread == static_cast<uint32_t>(thread)) {
        return c.billed;
      }
    }
    return 0;
  };

  // The report. Every row is kernel accounting, not heuristics.
  struct Row {
    const char* name;
    ObjectId thread;
  };
  const Row rows[] = {{"game", game.thread}, {"mail", mail.proc().thread},
                      {"nav", nav.thread}};
  const double total = sim.meter().Total().joules_f();
  bool cpu_sources_agree = true;
  std::printf("battery stats — last %lld min (battery %d%%)\n",
              static_cast<long long>(window.secs() / 60), sim.battery().LevelPercent());
  std::printf("%-8s %10s %10s %10s %8s\n", "app", "cpu_J", "radio_J", "total_J", "share");
  for (const Row& row : rows) {
    const Energy meter_cpu = sim.meter().ForPrincipalComponent(row.thread, Component::kCpu);
    const int64_t traced = traced_cpu_nj(row.thread);
    cpu_sources_agree = cpu_sources_agree && traced == meter_cpu.nj();
    const double cpu = ToEnergy(traced).joules_f();
    const double radio =
        sim.meter().ForPrincipalComponent(row.thread, Component::kRadio).joules_f();
    const double app_total = sim.meter().ForPrincipal(row.thread).joules_f();
    std::printf("%-8s %10.1f %10.1f %10.1f %7.1f%%\n", row.name, cpu, radio, app_total,
                100.0 * app_total / total);
  }
  const double system =
      sim.meter().ForPrincipal(kSystemPrincipal).joules_f();
  std::printf("%-8s %10s %10s %10.1f %7.1f%%  (idle baseline + screen)\n", "system", "-",
              "-", system, 100.0 * system / total);
  std::printf("\nestimated total: %.1f J; measured battery drain: %.1f J\n", total,
              sim.total_true_energy().joules_f());
  std::printf("cpu rows from telemetry (%llu sched picks, %llu idle); meter agrees: %s\n",
              static_cast<unsigned long long>(reader.aggregate().SchedPicks()),
              static_cast<unsigned long long>(reader.aggregate().SchedIdlePicks()),
              cpu_sources_agree ? "yes" : "NO");
  std::printf("note: mail's radio joules include its share of netd's pooled activations —\n"
              "gate-based accounting attributes daemon work to the app that caused it.\n");
  return cpu_sources_agree ? 0 : 1;
}
