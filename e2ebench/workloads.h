// Workload generators, builders and output checks for the end-to-end
// simulator benchmark (see README.md in this directory).
//
// Every workload is split in two halves:
//   * a generator, Gen*Spec(seed, scale), that turns the seed into plain
//     parameter structs — the only thing the seed influences;
//   * a builder that turns a spec into kernel objects inside a Rig, plus the
//     checks and the fingerprint that judge the run's outputs.
// The simulator therefore sees only generated objects, and two runs with the
// same seed build bit-identical systems.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/poller.h"
#include "src/base/units.h"
#include "src/net/netd.h"
#include "src/sim/simulator.h"
#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "timing_sink.h"

namespace e2e {

using cinder::ObjectId;
using cinder::Quantity;

// One simulated frame: the simulator's tap-batch period.
inline constexpr int64_t kFrameUs = 10'000;
inline constexpr double kFrameSimSeconds = 0.01;

enum class WorkloadKind { kFleetSteady, kFleetGiantChurn, kDeviceApps };
const char* WorkloadName(WorkloadKind kind);

// Sizes: the full benchmark, or the reduced smoke-test shape.
struct Scale {
  int phones = 20'000;          // fleet_steady
  int fanout_taps = 32'768;     // fleet_giant_churn
  int chain_depth = 8'192;
  int churn_phones = 8;         // Live small phone components.
  int churn_every = 20;         // Frames per churn cycle.
  int apps = 256;               // device_apps
  int pollers = 8;
  int sample_phones = 32;       // fleet_steady serial-replay sample.
  uint64_t fingerprint_frame = 300;  // Total frames at the fingerprint snapshot.
  uint64_t device_fingerprint_frame = 2'000;

  static Scale Full() { return Scale{}; }
  static Scale Smoke();
};

// -- Specs (generator output) ----------------------------------------------------

struct PhoneSpec {
  Quantity budget = 0;  // nJ seeded into the pool; the phone's exact total.
  int64_t fg_uw = 0;    // pool -> fg constant power.
  double bg_rate = 0;   // pool -> bg proportional rate (1/s).
  double back_rate = 0; // fg -> pool proportional rate (1/s).
};

struct FleetSpec {
  std::vector<PhoneSpec> phones;
  std::vector<uint32_t> sample;  // Phone indices replayed serially.
};

struct GiantSpec {
  uint64_t seed = 0;
  Quantity hub_budget = 0;
  std::vector<int64_t> leaf_uw;  // Hub -> leaf constant powers.
  Quantity relay_budget = 0;
  std::vector<Quantity> hop_seed;
  std::vector<int64_t> hop_uw;
  int churn_phones = 0;
  int churn_every = 0;
};
// The i-th small phone ever created by fleet_giant_churn (initial ones first,
// then one per churn), a pure function of (seed, i).
PhoneSpec GiantChurnPhone(uint64_t seed, uint64_t i);

struct AppSpec {
  enum class Kind : uint8_t { kSpinner, kSleeper, kBursty };
  Kind kind = Kind::kSpinner;
  int64_t tap_uw = 0;   // Battery -> app reserve constant power.
  int64_t period_ms = 0;  // Sleeper: sleep after each quantum.
  int burst_quanta = 0;   // Bursty: quanta per burst...
  int64_t sleep_ms = 0;   // ...then sleep this long.
};

struct DeviceSpec {
  std::vector<AppSpec> apps;
  std::vector<cinder::PollerApp::Config> pollers;
};

FleetSpec GenFleetSpec(uint64_t seed, const Scale& s);
GiantSpec GenGiantSpec(uint64_t seed, const Scale& s);
DeviceSpec GenDeviceSpec(uint64_t seed, const Scale& s);

// -- Fingerprint ---------------------------------------------------------------------

struct Fingerprint {
  uint64_t frames = 0;
  int64_t tap_flow = 0;
  int64_t decay_flow = 0;
  uint64_t reserves = 0;
  int64_t reserve_total = 0;
  uint64_t reserve_digest = 0;
  int64_t thread_quanta = 0;
  uint64_t thread_digest = 0;
  int64_t meter_total_nj = 0;
  int64_t meter_cpu_nj = 0;
  int64_t polls_completed = 0;
  int64_t poll_bytes = 0;
  int64_t poll_blocked = 0;
  int64_t netd_activations = 0;

  uint64_t Digest() const;
  std::string ToString() const;
  bool operator==(const Fingerprint& o) const;
};

// -- Rig: one simulator with its telemetry consumers and workload state ------------

struct PhoneIds {
  ObjectId container = cinder::kInvalidObjectId;
  ObjectId pool = cinder::kInvalidObjectId;
  ObjectId fg = cinder::kInvalidObjectId;
  ObjectId bg = cinder::kInvalidObjectId;
  Quantity budget = 0;
};

struct Rig {
  // Member order is destruction order, reversed. The simulator's trace
  // domain detaches (and may flush into) its sinks when it is destroyed, and
  // the aggregator's window callback writes the alarm bookkeeping, so all of
  // those are declared before `sim`; the apps hold pointers into the
  // simulator, so they are declared after it.
  cinder::LiveAggregator agg;
  cinder::HealthMonitor monitor;
  std::unique_ptr<TimingSink> timing;  // Traced runs only; wraps `agg`.
  // Accounting alarms (conservation drift + record loss) seen so far, and the
  // windows that raised them as [first, last] telemetry frame sequence
  // numbers.
  uint64_t serious_alarms = 0;
  std::vector<std::pair<uint64_t, uint64_t>> alarm_windows;
  uint64_t frames_run = 0;
  std::vector<PhoneIds> phones;   // fleet_steady phones / live churn phones.
  uint64_t phones_created = 0;    // fleet_giant_churn: next churn phone index.
  std::vector<ObjectId> hub_component;    // Hub pool first, then leaves.
  Quantity hub_total = 0;
  std::vector<ObjectId> relay_component;  // Relay pool first, then hops.
  Quantity relay_total = 0;

  std::unique_ptr<cinder::Simulator> sim;
  std::unique_ptr<cinder::NetdService> netd;
  std::vector<std::unique_ptr<cinder::PollerApp>> pollers;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

// Everything a workload needs to build and judge a run.
struct Workload {
  WorkloadKind kind;
  Scale scale;
  FleetSpec fleet;
  GiantSpec giant;
  DeviceSpec device;

  const char* name() const { return WorkloadName(kind); }
  // Device count behind sim_throughput's device-seconds.
  double devices() const;
  uint64_t fingerprint_frame() const;
  // Tap workers: 4 (= nproc on the reference box; ShardExecutor(4) is the
  // caller plus 3 pool threads) for the fleets, 0 (single-threaded) for the
  // device.
  int workers() const { return kind == WorkloadKind::kDeviceApps ? 0 : 4; }

  // Builds the topology into a fresh rig. `traced` attaches a TimingSink
  // wrapping the aggregator instead of the aggregator itself. `build_ns`,
  // when set, receives the wall time of each component's build calls (one
  // phone / one app). `workers` / `plan_quanta` >= 0 override tap_workers /
  // sched_plan_quanta (the checks' replays).
  std::unique_ptr<Rig> Build(bool traced, std::vector<int64_t>* build_ns = nullptr,
                             int workers = -1, int plan_quanta = -1) const;

  // Issues the frame's inputs before RunUntil; returns true on a churn frame.
  bool BeforeFrame(Rig& rig, uint64_t frame) const;
  bool IsChurnFrame(uint64_t frame) const;

  // Output checks against the spec (and, where the check calls for one, a
  // reference replay); false with a reason on the first mismatch.
  // `snapshot` is the rig's fingerprint at fingerprint_frame().
  bool Check(Rig& rig, const Fingerprint& snapshot, std::string* why) const;
};

Workload MakeWorkload(WorkloadKind kind, uint64_t seed, const Scale& scale);
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

// Runs one 10 ms frame untimed: the frame's inputs, then RunUntil(now + 10 ms).
void RunFrame(const Workload& w, Rig& rig);

Fingerprint TakeFingerprint(Rig& rig);

}  // namespace e2e
