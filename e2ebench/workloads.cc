#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/base/rng.h"
#include "src/core/tap_engine.h"

namespace e2e {

using namespace cinder;

namespace {

// Seeds one generator stream per (workload, purpose) so adding a parameter
// to one workload never shifts another's inputs.
Rng StreamRng(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return Rng(mix.Next());
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("build failed: " + what);
  }
}

// One phone-sized component: pool -> fg (constant power), pool -> bg
// (proportional), fg -> pool (proportional return) — the examples/fleet
// topology, three taps in one connected component.
PhoneIds BuildPhone(Simulator& sim, const std::string& prefix, const PhoneSpec& spec) {
  Kernel& kernel = sim.kernel();
  TapEngine& taps = sim.taps();
  const Label l1(Level::k1);
  PhoneIds ids;
  Container* home = kernel.Create<Container>(kernel.root_container_id(), l1, prefix);
  ids.container = home->id();
  Reserve* pool = kernel.Create<Reserve>(home->id(), l1, prefix + "/pool");
  pool->Deposit(spec.budget);
  Reserve* fg = kernel.Create<Reserve>(home->id(), l1, prefix + "/fg");
  Reserve* bg = kernel.Create<Reserve>(home->id(), l1, prefix + "/bg");
  ids.pool = pool->id();
  ids.fg = fg->id();
  ids.bg = bg->id();
  ids.budget = spec.budget;
  Tap* feed_fg = kernel.Create<Tap>(home->id(), l1, prefix + "/feed_fg", pool->id(), fg->id());
  feed_fg->SetConstantPower(Power::Microwatts(spec.fg_uw));
  Tap* feed_bg = kernel.Create<Tap>(home->id(), l1, prefix + "/feed_bg", pool->id(), bg->id());
  feed_bg->SetProportionalRate(spec.bg_rate);
  Tap* back = kernel.Create<Tap>(home->id(), l1, prefix + "/back", fg->id(), pool->id());
  back->SetProportionalRate(spec.back_rate);
  Require(taps.Register(feed_fg->id()) && taps.Register(feed_bg->id()) &&
              taps.Register(back->id()),
          "phone tap registration");
  return ids;
}

PhoneSpec GenPhone(Rng& rng) {
  PhoneSpec p;
  p.budget = ToQuantity(Energy::Joules(200.0 + static_cast<double>(rng.UniformInt(0, 150)))) +
             rng.UniformInt(0, 999'999);
  p.fg_uw = rng.UniformInt(200, 440) * 1000;
  p.bg_rate = rng.UniformRange(0.002, 0.0035);
  p.back_rate = rng.UniformRange(0.08, 0.12);
  return p;
}

Quantity Level(Kernel& kernel, ObjectId id) {
  const Reserve* r = kernel.LookupTyped<Reserve>(id);
  return r != nullptr ? r->level() : -1;
}

Quantity PhoneTotal(Kernel& kernel, const PhoneIds& p) {
  return Level(kernel, p.pool) + Level(kernel, p.fg) + Level(kernel, p.bg);
}

Quantity ComponentTotal(Kernel& kernel, const std::vector<ObjectId>& ids) {
  Quantity total = 0;
  for (ObjectId id : ids) {
    total += Level(kernel, id);
  }
  return total;
}

bool Fail(std::string* why, const std::string& msg) {
  *why = msg;
  return false;
}

// The engine's flow totals must equal the live aggregator's whenever the
// stream lost nothing (a lossy stream undercounts by design).
bool CheckLiveTotals(Rig& rig, std::string* why) {
  if (rig.agg.ring_dropped() != 0) {
    return true;
  }
  TapEngine& taps = rig.sim->taps();
  if (rig.agg.TotalTapFlow() != taps.total_tap_flow() ||
      rig.agg.TotalDecayFlow() != taps.total_decay_flow()) {
    return Fail(why, "complete telemetry stream disagrees with engine flow totals");
  }
  return true;
}

void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

std::vector<ObjectId> SortedIds(const Kernel& kernel, ObjectType type) {
  std::vector<ObjectId> ids = kernel.ObjectsOfType(type);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

Scale Scale::Smoke() {
  Scale s;
  s.phones = 300;
  s.fanout_taps = 4'096;
  s.chain_depth = 1'024;
  s.churn_phones = 4;
  s.churn_every = 5;
  s.apps = 32;
  s.pollers = 2;
  s.sample_phones = 8;
  s.fingerprint_frame = 40;
  s.device_fingerprint_frame = 800;
  return s;
}

// -- Generators --------------------------------------------------------------------

FleetSpec GenFleetSpec(uint64_t seed, const Scale& s) {
  FleetSpec f;
  Rng rng = StreamRng(seed, 1);
  f.phones.reserve(static_cast<size_t>(s.phones));
  for (int p = 0; p < s.phones; ++p) {
    f.phones.push_back(GenPhone(rng));
  }
  Rng pick = StreamRng(seed, 2);
  while (f.sample.size() < static_cast<size_t>(std::min(s.sample_phones, s.phones))) {
    const auto p = static_cast<uint32_t>(pick.UniformU64(static_cast<uint64_t>(s.phones)));
    if (std::find(f.sample.begin(), f.sample.end(), p) == f.sample.end()) {
      f.sample.push_back(p);
    }
  }
  std::sort(f.sample.begin(), f.sample.end());
  return f;
}

PhoneSpec GiantChurnPhone(uint64_t seed, uint64_t i) {
  Rng rng = StreamRng(seed ^ (i * 0xd1b54a32d192ed03ULL), 3);
  return GenPhone(rng);
}

GiantSpec GenGiantSpec(uint64_t seed, const Scale& s) {
  GiantSpec g;
  g.seed = seed;
  Rng rng = StreamRng(seed, 4);
  // The hub feeds every leaf for the whole run: leaf decay returns to the
  // hub (decay_to_shard_root), so it only has to cover the standing levels.
  g.hub_budget = ToQuantity(Energy::Joules(50'000.0)) + rng.UniformInt(0, 999'999);
  g.leaf_uw.resize(static_cast<size_t>(s.fanout_taps));
  for (auto& uw : g.leaf_uw) {
    uw = rng.UniformInt(500, 3'000);
  }
  // Every hop is pre-funded well above what its net outflow can drain in a
  // run, so the cut destinations stay provably unconstrained and the
  // boundary taps keep taking the lane path instead of the fused fallback.
  g.relay_budget = ToQuantity(Energy::Joules(500.0)) + rng.UniformInt(0, 999'999);
  g.hop_seed.resize(static_cast<size_t>(s.chain_depth));
  g.hop_uw.resize(static_cast<size_t>(s.chain_depth));
  for (int i = 0; i < s.chain_depth; ++i) {
    g.hop_seed[i] = ToQuantity(Energy::Joules(20.0)) + rng.UniformInt(0, 5'000'000'000);
    g.hop_uw[i] = rng.UniformInt(1'000, 13'000);
  }
  g.churn_phones = s.churn_phones;
  g.churn_every = s.churn_every;
  return g;
}

DeviceSpec GenDeviceSpec(uint64_t seed, const Scale& s) {
  DeviceSpec d;
  Rng rng = StreamRng(seed, 5);
  d.apps.resize(static_cast<size_t>(s.apps));
  for (int i = 0; i < s.apps; ++i) {
    AppSpec& a = d.apps[i];
    switch (i % 4) {
      case 0:
        // Spinners are funded below the CPU left over by everyone else, so
        // they run only while their reserve lasts: the energy-aware denials.
        a.kind = AppSpec::Kind::kSpinner;
        a.tap_uw = rng.UniformInt(100, 600);
        break;
      case 1:
        a.kind = AppSpec::Kind::kSleeper;
        a.tap_uw = rng.UniformInt(5'000, 20'000);
        a.period_ms = rng.UniformInt(20, 500);
        break;
      default:
        a.kind = AppSpec::Kind::kBursty;
        a.tap_uw = rng.UniformInt(10'000, 40'000);
        a.burst_quanta = static_cast<int>(rng.UniformInt(1, 8));
        a.sleep_ms = rng.UniformInt(50, 2'000);
        break;
    }
  }
  for (int i = 0; i < s.pollers; ++i) {
    PollerApp::Config c;
    c.name = "poller" + std::to_string(i);
    c.poll_interval = Duration::Seconds(rng.UniformInt(30, 120));
    c.start_delay = Duration::Millis(rng.UniformInt(0, 30'000));
    c.payload_bytes = rng.UniformInt(4, 16) * 1024;
    d.pollers.push_back(c);
  }
  return d;
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed, const Scale& scale) {
  Workload w{kind, scale, {}, {}, {}};
  switch (kind) {
    case WorkloadKind::kFleetSteady:
      w.fleet = GenFleetSpec(seed, scale);
      break;
    case WorkloadKind::kFleetGiantChurn:
      w.giant = GenGiantSpec(seed, scale);
      break;
    case WorkloadKind::kDeviceApps:
      w.device = GenDeviceSpec(seed, scale);
      break;
  }
  return w;
}

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k :
       {WorkloadKind::kFleetSteady, WorkloadKind::kFleetGiantChurn, WorkloadKind::kDeviceApps}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

// -- Workload ----------------------------------------------------------------------

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kFleetSteady:
      return "fleet_steady";
    case WorkloadKind::kFleetGiantChurn:
      return "fleet_giant_churn";
    case WorkloadKind::kDeviceApps:
      return "device_apps";
  }
  return "?";
}

double Workload::devices() const {
  return kind == WorkloadKind::kFleetSteady ? static_cast<double>(fleet.phones.size()) : 1.0;
}

uint64_t Workload::fingerprint_frame() const {
  return kind == WorkloadKind::kDeviceApps ? scale.device_fingerprint_frame
                                           : scale.fingerprint_frame;
}

bool Workload::IsChurnFrame(uint64_t frame) const {
  return kind == WorkloadKind::kFleetGiantChurn && giant.churn_every > 0 && frame >= 2 &&
         frame % static_cast<uint64_t>(giant.churn_every) == 0;
}

std::unique_ptr<Rig> Workload::Build(bool traced, std::vector<int64_t>* build_ns, int workers,
                                     int plan_quanta) const {
  SimConfig cfg;
  cfg.telemetry.enabled = true;
  switch (kind) {
    case WorkloadKind::kFleetSteady:
      cfg.decay_half_life = Duration::Minutes(2);
      cfg.exec.decay_to_shard_root = true;
      break;
    case WorkloadKind::kFleetGiantChurn:
      cfg.exec.decay_to_shard_root = true;
      cfg.exec.shard_cut_threshold = 512;
      break;
    case WorkloadKind::kDeviceApps:
      // Large enough that the battery never runs dry within any run.
      cfg.model.battery_capacity = Energy::Joules(1e7);
      break;
  }
  cfg.exec.tap_workers = workers >= 0 ? workers : this->workers();
  if (plan_quanta >= 0) {
    cfg.exec.sched_plan_quanta = static_cast<uint32_t>(plan_quanta);
  }

  auto rig = std::make_unique<Rig>();
  rig->sim = std::make_unique<Simulator>(cfg);
  Simulator& sim = *rig->sim;
  rig->agg.set_monitor(&rig->monitor);
  Rig* r = rig.get();
  // The monitor has already judged the window when this runs; a rise in the
  // accounting-alarm counters marks every frame of the window failed.
  rig->agg.set_window_callback([r](const WindowStats& w) {
    const uint64_t serious = r->monitor.count(AlarmKind::kConservationDrift) +
                             r->monitor.count(AlarmKind::kRecordLoss);
    if (serious > r->serious_alarms) {
      r->serious_alarms = serious;
      r->alarm_windows.emplace_back(w.last_frame + 1 - w.frames, w.last_frame);
    }
  });
  if (traced) {
    rig->timing = std::make_unique<TimingSink>(&rig->agg);
    sim.telemetry().AddSink(rig->timing.get());
  } else {
    sim.telemetry().AddSink(&rig->agg);
  }

  const auto timed = [build_ns](auto&& fn) {
    const int64_t t0 = build_ns != nullptr ? NowNs() : 0;
    fn();
    if (build_ns != nullptr) {
      build_ns->push_back(NowNs() - t0);
    }
  };
  Kernel& kernel = sim.kernel();
  TapEngine& taps = sim.taps();
  const Label l1(Level::k1);
  switch (kind) {
    case WorkloadKind::kFleetSteady: {
      rig->phones.reserve(fleet.phones.size());
      for (size_t p = 0; p < fleet.phones.size(); ++p) {
        timed([&] {
          rig->phones.push_back(BuildPhone(sim, "phone" + std::to_string(p), fleet.phones[p]));
        });
      }
      break;
    }
    case WorkloadKind::kFleetGiantChurn: {
      Container* hub_home = kernel.Create<Container>(kernel.root_container_id(), l1, "hub");
      Reserve* hub = kernel.Create<Reserve>(hub_home->id(), l1, "hub/pool");
      hub->Deposit(giant.hub_budget);
      rig->hub_component.push_back(hub->id());
      rig->hub_total = giant.hub_budget;
      for (size_t i = 0; i < giant.leaf_uw.size(); ++i) {
        Reserve* leaf = kernel.Create<Reserve>(hub_home->id(), l1, "hub/leaf");
        Tap* t = kernel.Create<Tap>(hub_home->id(), l1, "hub/t", hub->id(), leaf->id());
        t->SetConstantPower(Power::Microwatts(giant.leaf_uw[i]));
        Require(taps.Register(t->id()), "hub tap registration");
        rig->hub_component.push_back(leaf->id());
      }
      Container* relay_home = kernel.Create<Container>(kernel.root_container_id(), l1, "relay");
      Reserve* prev = kernel.Create<Reserve>(relay_home->id(), l1, "relay/pool");
      prev->Deposit(giant.relay_budget);
      rig->relay_component.push_back(prev->id());
      rig->relay_total = giant.relay_budget;
      for (size_t i = 0; i < giant.hop_seed.size(); ++i) {
        Reserve* hop = kernel.Create<Reserve>(relay_home->id(), l1, "relay/hop");
        hop->Deposit(giant.hop_seed[i]);
        Tap* t = kernel.Create<Tap>(relay_home->id(), l1, "relay/t", prev->id(), hop->id());
        t->SetConstantPower(Power::Microwatts(giant.hop_uw[i]));
        Require(taps.Register(t->id()), "relay tap registration");
        rig->relay_component.push_back(hop->id());
        rig->relay_total += giant.hop_seed[i];
        prev = hop;
      }
      for (int i = 0; i < giant.churn_phones; ++i) {
        rig->phones.push_back(BuildPhone(sim, "churn" + std::to_string(rig->phones_created),
                                         GiantChurnPhone(giant.seed, rig->phones_created)));
        ++rig->phones_created;
      }
      break;
    }
    case WorkloadKind::kDeviceApps: {
      rig->netd = std::make_unique<NetdService>(&sim, NetdMode::kCooperative);
      for (size_t i = 0; i < device.apps.size(); ++i) {
        timed([&] {
          const AppSpec& a = device.apps[i];
          const std::string name = "app" + std::to_string(i);
          const Simulator::Process proc = sim.CreateProcess(name);
          Reserve* res = kernel.Create<Reserve>(proc.container, l1, name + "/reserve");
          Tap* t = kernel.Create<Tap>(proc.container, l1, name + "/tap", sim.battery_reserve_id(),
                                      res->id());
          t->SetConstantPower(Power::Microwatts(a.tap_uw));
          Require(taps.Register(t->id()), "app tap registration");
          kernel.LookupTyped<Thread>(proc.thread)->set_active_reserve(res->id());
          switch (a.kind) {
            case AppSpec::Kind::kSpinner:
              sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
              break;
            case AppSpec::Kind::kSleeper:
              sim.AttachBody(proc.thread,
                             MakeBody([period = Duration::Millis(a.period_ms)](
                                          QuantumContext& ctx) {
                               ctx.thread.SleepUntil(ctx.now + period);
                             }));
              break;
            case AppSpec::Kind::kBursty:
              sim.AttachBody(proc.thread,
                             MakeBody([left = a.burst_quanta, burst = a.burst_quanta,
                                       sleep = Duration::Millis(a.sleep_ms)](
                                          QuantumContext& ctx) mutable {
                               if (--left <= 0) {
                                 left = burst;
                                 ctx.thread.SleepUntil(ctx.now + sleep);
                               }
                             }));
              break;
          }
        });
      }
      for (const PollerApp::Config& c : device.pollers) {
        rig->pollers.push_back(std::make_unique<PollerApp>(&sim, rig->netd.get(), c));
      }
      break;
    }
  }
  return rig;
}

bool Workload::BeforeFrame(Rig& rig, uint64_t frame) const {
  if (!IsChurnFrame(frame)) {
    return false;
  }
  // Retire the oldest small phone and create the next one: one kernel
  // mutation batch, so the frame's tap batch rebuilds the whole plan.
  Simulator& sim = *rig.sim;
  Require(sim.kernel().Delete(rig.phones.front().container) == Status::kOk, "churn delete");
  rig.phones.erase(rig.phones.begin());
  rig.phones.push_back(BuildPhone(sim, "churn" + std::to_string(rig.phones_created),
                                  GiantChurnPhone(giant.seed, rig.phones_created)));
  ++rig.phones_created;
  return true;
}

void RunFrame(const Workload& w, Rig& rig) {
  w.BeforeFrame(rig, rig.frames_run);
  rig.sim->RunUntil(rig.sim->now() + Duration::Micros(kFrameUs));
  ++rig.frames_run;
}

bool Workload::Check(Rig& rig, const Fingerprint& snapshot, std::string* why) const {
  Kernel& kernel = rig.sim->kernel();
  if (!CheckLiveTotals(rig, why)) {
    return false;
  }
  switch (kind) {
    case WorkloadKind::kFleetSteady: {
      for (size_t p = 0; p < rig.phones.size(); ++p) {
        const Quantity total = PhoneTotal(kernel, rig.phones[p]);
        if (total != rig.phones[p].budget) {
          return Fail(why, "phone " + std::to_string(p) + " holds " + std::to_string(total) +
                               " nJ, seeded " + std::to_string(rig.phones[p].budget));
        }
      }
      // Serial replay of the sampled phones alone: sharded-serial engine, no
      // worker pool, the same number of frames. Each phone is its own
      // component, so its levels must come out bit-identical.
      Workload sub = *this;
      sub.fleet.phones.clear();
      for (uint32_t p : fleet.sample) {
        sub.fleet.phones.push_back(fleet.phones[p]);
      }
      std::unique_ptr<Rig> replay = sub.Build(false, nullptr, /*workers=*/0);
      replay->sim->RunUntil(SimTime::FromMicros(static_cast<int64_t>(rig.frames_run) * kFrameUs));
      Kernel& rk = replay->sim->kernel();
      for (size_t i = 0; i < fleet.sample.size(); ++i) {
        const PhoneIds& a = rig.phones[fleet.sample[i]];
        const PhoneIds& b = replay->phones[i];
        if (Level(kernel, a.pool) != Level(rk, b.pool) || Level(kernel, a.fg) != Level(rk, b.fg) ||
            Level(kernel, a.bg) != Level(rk, b.bg)) {
          return Fail(why, "serial replay of phone " + std::to_string(fleet.sample[i]) +
                               " diverged");
        }
      }
      return true;
    }
    case WorkloadKind::kFleetGiantChurn: {
      if (ComponentTotal(kernel, rig.hub_component) != rig.hub_total) {
        return Fail(why, "fan-out component not conserved");
      }
      if (ComponentTotal(kernel, rig.relay_component) != rig.relay_total) {
        return Fail(why, "relay chain component not conserved");
      }
      for (const PhoneIds& p : rig.phones) {
        if (PhoneTotal(kernel, p) != p.budget) {
          return Fail(why, "churned phone component not conserved");
        }
      }
      return true;
    }
    case WorkloadKind::kDeviceApps: {
      // Plan-free reference: the same device with sched_plan_quanta = 0
      // (every quantum a full PickNext), to the snapshot frame.
      std::unique_ptr<Rig> replay = Build(false, nullptr, -1, /*plan_quanta=*/0);
      while (replay->frames_run < snapshot.frames) {
        RunFrame(*this, *replay);
      }
      const Fingerprint ref = TakeFingerprint(*replay);
      if (!(ref == snapshot)) {
        return Fail(why, "fingerprint differs from the plan-free replay: run " +
                             snapshot.ToString() + " vs replay " + ref.ToString());
      }
      return true;
    }
  }
  return true;
}

// -- Fingerprint ---------------------------------------------------------------------

Fingerprint TakeFingerprint(Rig& rig) {
  Simulator& sim = *rig.sim;
  Kernel& kernel = sim.kernel();
  Fingerprint f;
  f.frames = rig.frames_run;
  f.tap_flow = sim.taps().total_tap_flow();
  f.decay_flow = sim.taps().total_decay_flow();
  f.reserve_digest = 0xcbf29ce484222325ULL;
  for (ObjectId id : SortedIds(kernel, ObjectType::kReserve)) {
    const Quantity level = Level(kernel, id);
    ++f.reserves;
    f.reserve_total += level;
    Mix(&f.reserve_digest, id);
    Mix(&f.reserve_digest, static_cast<uint64_t>(level));
  }
  f.thread_digest = 0xcbf29ce484222325ULL;
  for (ObjectId id : SortedIds(kernel, ObjectType::kThread)) {
    const Thread* t = kernel.LookupTyped<Thread>(id);
    const int64_t quanta = t != nullptr ? t->quanta_run() : -1;
    f.thread_quanta += quanta;
    Mix(&f.thread_digest, id);
    Mix(&f.thread_digest, static_cast<uint64_t>(quanta));
  }
  f.meter_total_nj = sim.meter().Total().nj();
  f.meter_cpu_nj = sim.meter().ForComponent(Component::kCpu).nj();
  for (const auto& p : rig.pollers) {
    f.polls_completed += p->polls_completed();
    f.poll_bytes += p->bytes_sent();
    f.poll_blocked += p->times_blocked();
  }
  f.netd_activations = sim.radio().activation_count();
  return f;
}

uint64_t Fingerprint::Digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t v : {frames, static_cast<uint64_t>(tap_flow), static_cast<uint64_t>(decay_flow),
                     reserves, static_cast<uint64_t>(reserve_total), reserve_digest,
                     static_cast<uint64_t>(thread_quanta), thread_digest,
                     static_cast<uint64_t>(meter_total_nj), static_cast<uint64_t>(meter_cpu_nj),
                     static_cast<uint64_t>(polls_completed), static_cast<uint64_t>(poll_bytes),
                     static_cast<uint64_t>(poll_blocked),
                     static_cast<uint64_t>(netd_activations)}) {
    Mix(&h, v);
  }
  return h;
}

bool Fingerprint::operator==(const Fingerprint& o) const {
  return frames == o.frames && tap_flow == o.tap_flow && decay_flow == o.decay_flow &&
         reserves == o.reserves && reserve_total == o.reserve_total &&
         reserve_digest == o.reserve_digest && thread_quanta == o.thread_quanta &&
         thread_digest == o.thread_digest && meter_total_nj == o.meter_total_nj &&
         meter_cpu_nj == o.meter_cpu_nj && polls_completed == o.polls_completed &&
         poll_bytes == o.poll_bytes && poll_blocked == o.poll_blocked &&
         netd_activations == o.netd_activations;
}

std::string Fingerprint::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "digest=%016llx frames=%llu tap_flow_nj=%lld decay_flow_nj=%lld reserves=%llu "
                "reserve_total_nj=%lld reserve_digest=%016llx thread_quanta=%lld "
                "thread_digest=%016llx meter_nj=%lld meter_cpu_nj=%lld polls=%lld "
                "poll_bytes=%lld poll_blocked=%lld radio_activations=%lld",
                static_cast<unsigned long long>(Digest()),
                static_cast<unsigned long long>(frames), static_cast<long long>(tap_flow),
                static_cast<long long>(decay_flow), static_cast<unsigned long long>(reserves),
                static_cast<long long>(reserve_total),
                static_cast<unsigned long long>(reserve_digest),
                static_cast<long long>(thread_quanta),
                static_cast<unsigned long long>(thread_digest),
                static_cast<long long>(meter_total_nj), static_cast<long long>(meter_cpu_nj),
                static_cast<long long>(polls_completed), static_cast<long long>(poll_bytes),
                static_cast<long long>(poll_blocked), static_cast<long long>(netd_activations));
  return buf;
}

}  // namespace e2e
