// End-to-end simulator benchmark: drives Simulator through its public API
// one 10 ms tap-batch frame at a time (RunUntil(now + 10 ms)) on three
// seeded workloads, checks the outputs, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). README.md in this
// directory has the metric definitions and the workload rationale.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit C] [--source-digest D] [--spans-dir DIR]
//   e2e_bench --smoke
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": frames, "failed": frames, "metrics": {...}}
// `failed` counts frames the simulator did not complete (its clock did not
// advance by exactly one frame). Frames whose telemetry stream lost records
// or raised an accounting alarm are counted separately (the "frames:" line,
// and frames.failed_frac in the traced run).
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/core/scheduler.h"
#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/exec/shard_partitioner.h"
#include "timing_sink.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using cinder::Duration;

// Frames per block: a run ends on a block boundary, and device_apps visits
// one CPU per block. A run has at least kMinBlocks blocks, so each quarter's
// p99 has ten frames beyond it.
constexpr size_t kBlockFrames = 1000;
constexpr size_t kMinBlocks = 4;
// Frames per sub-block, the unit behind sim_throughput and frame_ms.p50.
constexpr size_t kSubBlockFrames = 250;
// Frame times kept up front, so the timed loop never reallocates (device_apps
// runs about 40k frames a second).
constexpr size_t kReservedFrames = size_t{1} << 22;
// Traced frames whose spans are written out (the rest are only aggregated).
constexpr size_t kMaxSpanFrames = 20'000;

// -- Statistics ----------------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Frame statistics of one run. On this shared box, frames that wake the
// executor's pool threads switch between a fast and a slow speed, 30-45%
// apart, every second or so with co-tenant load (a single-threaded run of the
// same workload does not), and the share of time spent at each speed varies
// from run to run. A median over the run jumps between the two speeds as
// that share crosses one half, so the central statistics are taken from the
// run's slower quarter instead: throughput is the lower quartile, and p50 the
// upper quartile, over kSubBlockFrames-frame sub-blocks of the sub-block's
// value. They stay at the slow speed unless the run spent three quarters of
// its time fast. p99 is the lower quartile of the p99s of the run's four
// consecutive quarters: an interference burst that hits one quarter does not
// move it, and a tail made of the workload's own slow frames
// (fleet_giant_churn's plan rebuilds) is read from most of the run.
class FrameStats {
 public:
  explicit FrameStats(double devices) : devices_(devices) { ms_.reserve(kReservedFrames); }

  void Add(int64_t wall_ns) { ms_.push_back(static_cast<float>(Ms(wall_ns))); }
  bool at_block_boundary() const { return !ms_.empty() && ms_.size() % kBlockFrames == 0; }
  size_t blocks() const { return ms_.size() / kBlockFrames; }
  uint64_t frames() const { return ms_.size(); }

  double throughput() const {
    std::vector<double> per_sub;
    for (size_t b = 0; b + kSubBlockFrames <= ms_.size(); b += kSubBlockFrames) {
      const std::vector<double> v = Slice(b, b + kSubBlockFrames);
      double wall_ms = 0.0;
      for (double x : v) {
        wall_ms += x;
      }
      per_sub.push_back(devices_ * static_cast<double>(v.size()) * kFrameSimSeconds /
                        (wall_ms / 1e3));
    }
    return Quantile(per_sub, 0.25);
  }
  double p50() const {
    std::vector<double> per_sub;
    for (size_t b = 0; b + kSubBlockFrames <= ms_.size(); b += kSubBlockFrames) {
      per_sub.push_back(Median(Slice(b, b + kSubBlockFrames)));
    }
    return Quantile(per_sub, 0.75);
  }
  double p99() const {
    std::vector<double> per_quarter;
    for (size_t k = 0; k < 4; ++k) {
      per_quarter.push_back(Quantile(Slice(ms_.size() * k / 4, ms_.size() * (k + 1) / 4), 0.99));
    }
    return Quantile(per_quarter, 0.25);
  }

 private:
  std::vector<double> Slice(size_t b, size_t e) const {
    return std::vector<double>(ms_.begin() + static_cast<std::ptrdiff_t>(b),
                               ms_.begin() + static_cast<std::ptrdiff_t>(e));
  }

  double devices_;
  std::vector<float> ms_;
};

// -- CPU rotation --------------------------------------------------------------------

// On this shared box each CPU runs at its own, drifting speed (what its
// hyperthread sibling is doing), so a single-threaded measurement depends
// on where the OS happens to place the thread. For single-threaded
// workloads the benchmark therefore visits every allowed CPU in turn — one
// setup build or one statistics block per visit — and reports the average
// over CPUs. Multi-threaded workloads use every CPU at once and are never
// pinned (the executor's pool threads would inherit the pin).
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to the k-th allowed CPU (no-op when disabled).
  void Visit(size_t k) const {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  // Setup builds are grouped by CPU visited; 4 groups when not rotating.
  size_t groups() const { return cpus_.empty() ? 4 : cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// -- Per-workload measurement shape --------------------------------------------------

struct Shape {
  int setup_reps;     // Builds behind setup_s.
  int warmup_frames;  // Untimed frames after setup.
  int pair_frames;    // Frames per traced/untraced alternation block.
};

Shape ShapeFor(const Workload& w) {
  switch (w.kind) {
    case WorkloadKind::kFleetSteady:
      return {12, 20, 10};
    case WorkloadKind::kFleetGiantChurn: {
      // Multiples of the churn cycle, so each leg holds the same frame mix.
      const int c = std::max(1, w.giant.churn_every);
      return {12, 2 * c, c};
    }
    case WorkloadKind::kDeviceApps:
      return {96, 500, 500};
  }
  return {4, 0, 1};
}

// -- Frames --------------------------------------------------------------------------

struct FrameTimes {
  int64_t start = 0;      // Inputs issued (churn calls included).
  int64_t churn_end = 0;  // RunUntil entry.
  int64_t end = 0;        // RunUntil return.
  bool churn = false;
  bool ok = true;          // The simulated clock advanced exactly one frame.
  uint64_t dropped = 0;    // Records the stream lost during the frame.
  uint64_t seq_begin = 0;  // Telemetry frame marks delivered during the
  uint64_t seq_end = 0;    // frame, as a [begin, end) range of sequence numbers.
  TimingSink::Frame trace;  // Traced rigs only.

  int64_t wall() const { return end - start; }
  // The traced split: churn + head + flush + quanta == wall by construction.
  int64_t churn_ns() const { return churn_end - start; }
  int64_t head_end() const { return trace.first_ns != 0 ? trace.first_ns : end; }
  int64_t flush_end() const {
    return trace.first_ns != 0 && trace.onframe_ns != 0 ? trace.onframe_ns : head_end();
  }
  int64_t head_ns() const { return head_end() - churn_end; }
  int64_t flush_ns() const { return flush_end() - head_end(); }
  int64_t quanta_ns() const { return end - flush_end(); }
};

FrameTimes TimedFrame(const Workload& w, Rig& rig) {
  FrameTimes f;
  const bool traced = rig.timing != nullptr && rig.timing->stamping();
  if (traced) {
    rig.timing->BeginFrame();
  }
  const cinder::SimTime target = rig.sim->now() + Duration::Micros(kFrameUs);
  f.seq_begin = rig.agg.frames();
  const uint64_t dropped = rig.agg.ring_dropped();
  f.start = NowNs();
  f.churn = w.BeforeFrame(rig, rig.frames_run);
  f.churn_end = traced ? NowNs() : f.start;
  rig.sim->RunUntil(target);
  f.end = NowNs();
  ++rig.frames_run;
  f.ok = rig.sim->now() == target;
  f.seq_end = rig.agg.frames();
  f.dropped = rig.agg.ring_dropped() - dropped;
  if (traced) {
    f.trace = rig.timing->frame();
  }
  return f;
}

// Counts frames that lost records or fell in a window that raised a
// conservation-drift or record-loss alarm. Windows close up to
// frames_per_window frames after they open, so frames stay pending for a
// while before they are final.
class TelemetryFailures {
 public:
  explicit TelemetryFailures(const Rig& rig) : rig_(rig), alarms_seen_(rig.alarm_windows.size()) {}

  void Add(const FrameTimes& f) {
    recent_.push_back({f.seq_begin, f.seq_end, f.dropped > 0});
    lossy_ += f.dropped > 0 ? 1 : 0;
    for (; alarms_seen_ < rig_.alarm_windows.size(); ++alarms_seen_) {
      const auto [first, last] = rig_.alarm_windows[alarms_seen_];
      for (Pending& p : recent_) {
        p.failed = p.failed || (p.seq_end > p.seq_begin && first < p.seq_end && last >= p.seq_begin);
      }
    }
    while (recent_.size() > kPending) {
      Retire();
    }
  }
  uint64_t Finish() {
    while (!recent_.empty()) {
      Retire();
    }
    return failed_;
  }
  uint64_t lossy() const { return lossy_; }

 private:
  static constexpr size_t kPending = 256;  // > LiveAggregator frames_per_window.
  struct Pending {
    uint64_t seq_begin;
    uint64_t seq_end;
    bool failed;
  };
  void Retire() {
    failed_ += recent_.front().failed ? 1 : 0;
    recent_.pop_front();
  }

  const Rig& rig_;
  size_t alarms_seen_;
  std::deque<Pending> recent_;
  uint64_t failed_ = 0;
  uint64_t lossy_ = 0;
};

// -- Environment ---------------------------------------------------------------------

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned int regs[12];
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const size_t b = s.find_first_not_of(' ');
    const size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// -- Results -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  // Observations behind the value (in the meta line, not the result).
};

struct Options {
  WorkloadKind kind = WorkloadKind::kFleetSteady;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_dir;
};

struct RunResult {
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintResult(const Options& o, const Workload& w, const RunResult& r) {
  std::printf("meta: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"nproc\": %d, "
              "\"cpu\": %s, \"build_type\": %s, \"commit\": %s, \"source_digest\": %s, "
              "\"samples\": {",
              JsonString(w.name()).c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, Nproc(), JsonString(CpuModel()).c_str(),
              JsonString(E2E_BUILD_TYPE).c_str(), JsonString(o.commit).c_str(),
              JsonString(o.source_digest).c_str());
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s%s: %llu", i == 0 ? "" : ", ", JsonString(r.metrics[i].name).c_str(),
                static_cast<unsigned long long>(r.metrics[i].samples));
  }
  std::printf("}}\n");
  for (const Metric& m : r.metrics) {
    std::printf("metric %-28s %16.6f %-8s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("check: %s\n", r.correct ? "all output checks passed" : r.why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                JsonString(r.metrics[i].name).c_str(), r.metrics[i].value,
                JsonString(r.metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Builds the workload `reps` times, each timed from construction through
// the first tap batch and scheduler plan (the end of the second frame), and
// keeps the last rig. setup_s is the mean over CPU groups of each group's
// median build. Traced builds also report their setup frames and the
// per-component build times of the last build.
std::unique_ptr<Rig> SetUp(const Workload& w, int reps, bool traced, const CpuRotation& cpus,
                           double* setup_s, std::vector<FrameTimes>* setup_frames,
                           std::vector<int64_t>* build_ns) {
  std::unique_ptr<Rig> rig;
  std::vector<std::vector<double>> groups(cpus.groups());
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    if (build_ns != nullptr) {
      build_ns->clear();
    }
    cpus.Visit(static_cast<size_t>(rep));
    const int64_t t0 = NowNs();
    rig = w.Build(traced, build_ns);
    for (int i = 0; i < 2; ++i) {
      const FrameTimes f = TimedFrame(w, *rig);
      if (setup_frames != nullptr) {
        setup_frames->push_back(f);
      }
    }
    groups[static_cast<size_t>(rep) % groups.size()].push_back(
        static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::vector<double> medians;
  for (const auto& g : groups) {
    if (!g.empty()) {
      medians.push_back(Median(g));
    }
  }
  *setup_s = Mean(medians);
  return rig;
}

void Judge(const Workload& w, Rig& rig, const Fingerprint& snapshot, RunResult* r) {
  std::printf("fingerprint@%llu: %s\n", static_cast<unsigned long long>(snapshot.frames),
              snapshot.ToString().c_str());
  std::printf("fingerprint@end: %s\n", TakeFingerprint(rig).ToString().c_str());
  std::string why;
  if (!w.Check(rig, snapshot, &why)) {
    r->correct = false;
    r->why = "CHECK FAILED: " + why;
  }
}

void PrintFrameAccounting(uint64_t attempted, uint64_t telemetry_failed, uint64_t lossy,
                          const Rig& rig) {
  std::printf("frames: attempted %llu, telemetry-failed %llu (failed_frac %.4f: %llu lost "
              "records, %zu accounting-alarm windows)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(telemetry_failed),
              Ratio(static_cast<double>(telemetry_failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(lossy), rig.alarm_windows.size());
}

// The fingerprint snapshot is taken inside the timed loop, at a fixed frame
// count, so it compares across runs and commits whatever the run's length.
uint64_t RequireFingerprintAhead(const Workload& w, const Rig& rig) {
  if (rig.frames_run > w.fingerprint_frame()) {
    throw std::runtime_error("fingerprint frame precedes the timed frames");
  }
  return w.fingerprint_frame();
}

// -- Untraced run: the end-to-end metrics ------------------------------------------------

RunResult MeasureEndToEnd(const Options& o, const Workload& w) {
  const Shape shape = ShapeFor(w);
  const CpuRotation cpus(w.workers() == 0);
  RunResult r;
  double setup_s = 0.0;
  std::unique_ptr<Rig> rig = SetUp(w, shape.setup_reps, false, cpus, &setup_s, nullptr, nullptr);
  Rig& g = *rig;
  for (int i = 0; i < shape.warmup_frames; ++i) {
    RunFrame(w, g);
  }

  FrameStats stats(w.devices());
  double peak_rss_mb = 0.0;
  TelemetryFailures telemetry(g);
  Fingerprint snapshot;
  const uint64_t fp_frame = RequireFingerprintAhead(w, g);
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  const int64_t loop_start = NowNs();
  while (NowNs() - loop_start < budget_ns || g.frames_run <= fp_frame ||
         stats.blocks() < kMinBlocks || !stats.at_block_boundary()) {
    if (stats.frames() % kBlockFrames == 0) {
      cpus.Visit(stats.blocks());
    }
    if (g.frames_run == fp_frame) {
      snapshot = TakeFingerprint(g);
      // Sampled at a fixed frame: the simulator's memory grows with
      // simulated time, and a faster build simulates more of it in a run.
      peak_rss_mb = PeakRssMb();
    }
    const FrameTimes f = TimedFrame(w, g);
    stats.Add(f.wall());
    telemetry.Add(f);
    r.failed += f.ok ? 0 : 1;
  }

  const uint64_t n = stats.frames();
  r.metrics = {
      {"sim_throughput", stats.throughput(), "dev-s/s", n},
      {"frame_ms.p50", stats.p50(), "ms", n},
      {"frame_ms.p99", stats.p99(), "ms", n},
      {"setup_s", setup_s, "s", static_cast<uint64_t>(shape.setup_reps)},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
  };
  r.attempted = n;
  std::printf("blocks: %zu of %zu frames\n", stats.blocks(), kBlockFrames);
  const uint64_t lossy = telemetry.lossy();
  PrintFrameAccounting(n, telemetry.Finish(), lossy, g);
  Judge(w, g, snapshot, &r);
  return r;
}

// -- Traced run: the per-layer metrics ------------------------------------------------------

void WriteSpans(const Options& o, const Workload& w, const std::vector<FrameTimes>& frames) {
  if (o.spans_dir.empty() || frames.empty()) {
    return;
  }
  const std::string path = o.spans_dir + "/" + w.name() + ".spans.csv";
  std::ofstream out(path);
  if (!out) {
    std::printf("spans: cannot write %s\n", path.c_str());
    return;
  }
  // One frame span per frame, parent of its churn/head/flush/quanta spans;
  // times in ns from the first timed frame.
  const int64_t t0 = frames.front().start;
  out << "span_id,parent_id,name,start_ns,end_ns\n";
  uint64_t id = 0;
  for (const FrameTimes& f : frames) {
    const uint64_t frame_id = id++;
    out << frame_id << ",,frame," << f.start - t0 << ',' << f.end - t0 << '\n';
    const struct {
      const char* name;
      int64_t b;
      int64_t e;
    } parts[] = {{"churn", f.start, f.churn_end},
                 {"head", f.churn_end, f.head_end()},
                 {"flush", f.head_end(), f.flush_end()},
                 {"quanta", f.flush_end(), f.end}};
    for (const auto& p : parts) {
      if (p.e > p.b) {
        out << id++ << ',' << frame_id << ',' << p.name << ',' << p.b - t0 << ',' << p.e - t0
            << '\n';
      }
    }
  }
  std::printf("spans: %s (%llu spans over the first %zu traced frames)\n", path.c_str(),
              static_cast<unsigned long long>(id), frames.size());
}

RunResult MeasureLayers(const Options& o, const Workload& w) {
  const Shape shape = ShapeFor(w);
  const CpuRotation cpus(w.workers() == 0);
  RunResult r;
  double setup_s = 0.0;
  std::vector<FrameTimes> setup_frames;
  std::vector<int64_t> build_ns;
  std::unique_ptr<Rig> rig =
      SetUp(w, shape.setup_reps, true, cpus, &setup_s, &setup_frames, &build_ns);
  Rig& T = *rig;
  for (int i = 0; i < shape.warmup_frames; ++i) {
    RunFrame(w, T);
  }

  cinder::TapEngine& taps = T.sim->taps();
  cinder::EnergyAwareScheduler& sched = T.sim->scheduler();
  const int workers = std::max(1, w.workers());
  const cinder::SchedPlanStats plan0 = sched.plan_stats();
  std::vector<int64_t> busy0(T.timing->worker_busy_ns(),
                             T.timing->worker_busy_ns() + TimingSink::kMaxWorkers);

  std::vector<double> wall_ms, head_ms, flush_ms, quanta_ms, steady_ms, rebuild_ms, churn_ms,
      util, plain_ms, overhead;
  std::vector<FrameTimes> span_frames;
  TelemetryFailures telemetry(T);
  uint64_t records = 0, dropped = 0, dispatches = 0, settles = 0, fused = 0, split_mismatch = 0;
  int64_t flush_total = 0;
  Fingerprint snapshot;
  const uint64_t fp_frame = RequireFingerprintAhead(w, T);
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  const int64_t loop_start = NowNs();
  // Traced legs alternate with untraced legs (the TimingSink only
  // forwarding, the benchmark's extra stamps skipped) on the same rig, in
  // swapped order each round, so the overhead is a paired comparison on one
  // heap layout and one box state.
  for (uint64_t round = 0; NowNs() - loop_start < budget_ns || T.frames_run <= fp_frame;
       ++round) {
    cpus.Visit(round);
    int64_t leg_ns[2] = {0, 0};  // [0] untraced, [1] traced.
    for (int leg = 0; leg < 2; ++leg) {
      const bool is_traced = (leg == 0) == (round % 2 == 1);
      T.timing->set_stamping(is_traced);
      for (int i = 0; i < shape.pair_frames; ++i) {
        if (T.frames_run == fp_frame) {
          snapshot = TakeFingerprint(T);
        }
        const FrameTimes f = TimedFrame(w, T);
        leg_ns[is_traced ? 1 : 0] += f.wall();
        ++r.attempted;
        r.failed += f.ok ? 0 : 1;
        telemetry.Add(f);
        if (!is_traced) {
          plain_ms.push_back(Ms(f.wall()));
          continue;
        }
        if (f.churn_ns() + f.head_ns() + f.flush_ns() + f.quanta_ns() != f.wall()) {
          ++split_mismatch;
        }
        wall_ms.push_back(Ms(f.wall()));
        head_ms.push_back(Ms(f.head_ns()));
        flush_ms.push_back(Ms(f.flush_ns()));
        quanta_ms.push_back(Ms(f.quanta_ns()));
        (f.trace.rebuild ? rebuild_ms : steady_ms).push_back(Ms(f.head_ns()));
        if (f.churn) {
          churn_ms.push_back(Ms(f.churn_ns()));
        }
        util.push_back(Ratio(static_cast<double>(f.trace.busy_ns),
                             static_cast<double>(workers) * static_cast<double>(f.head_ns())));
        flush_total += f.flush_ns();
        records += f.trace.records;
        dropped += f.dropped;
        dispatches += f.trace.dispatches;
        settles += f.trace.settles;
        fused += f.trace.fused_settles;
        if (span_frames.size() < kMaxSpanFrames) {
          span_frames.push_back(f);
        }
      }
    }
    overhead.push_back(Ratio(static_cast<double>(leg_ns[1]), static_cast<double>(leg_ns[0])) -
                       1.0);
  }
  T.timing->set_stamping(true);

  // Plan rebuilds outside the timed frames: each setup build's first batch.
  for (const FrameTimes& f : setup_frames) {
    if (f.trace.rebuild) {
      rebuild_ms.push_back(Ms(f.head_ns()));
    }
  }
  // The benchmark's own mutation calls: churn frames' delete + create on
  // fleet_giant_churn, each component's creation calls elsewhere.
  if (w.kind != WorkloadKind::kFleetGiantChurn) {
    for (int64_t ns : build_ns) {
      churn_ms.push_back(Ms(ns));
    }
  }
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (int i = 0; i < workers && i < static_cast<int>(TimingSink::kMaxWorkers); ++i) {
    const auto b = static_cast<double>(T.timing->worker_busy_ns()[i] - busy0[i]);
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  const cinder::SchedPlanStats& plan1 = sched.plan_stats();
  const auto replayed = static_cast<double>(plan1.quanta_replayed - plan0.quanta_replayed);
  const auto single = static_cast<double>(plan1.single_step_picks - plan0.single_step_picks);
  const auto planned = static_cast<double>(plan1.quanta_planned - plan0.quanta_planned);
  const auto discarded = static_cast<double>(plan1.quanta_discarded - plan0.quanta_discarded);
  const auto built = static_cast<double>(plan1.plans_built - plan0.plans_built);
  cinder::PartitionStats ps;
  if (const cinder::ShardPartitioner* part = taps.partitioner()) {
    ps = part->stats();
  }
  const uint64_t n = r.attempted;  // Both legs.
  const auto nf = static_cast<double>(n);
  const uint64_t nt = wall_ms.size();  // Traced legs only.
  const auto ntf = static_cast<double>(nt);
  const uint64_t lossy = telemetry.lossy();
  const uint64_t telemetry_failed = telemetry.Finish();

  r.metrics = {
      {"sim.frame_ms.p50", Median(wall_ms), "ms", nt},
      {"sim.head_ms.p50", Median(head_ms), "ms", nt},
      {"sim.quanta_ms.p50", Median(quanta_ms), "ms", nt},
      {"taps.ns_per_tap", Ratio(Median(head_ms) * 1e6, static_cast<double>(taps.tap_count())),
       "ns", nt},
      {"taps.steady_ms.p50", Median(steady_ms), "ms", steady_ms.size()},
      {"taps.rebuild_ms.p50", Median(rebuild_ms), "ms", rebuild_ms.size()},
      {"taps.shards", static_cast<double>(taps.shard_count()), "count", 1},
      {"taps.cut_parents", static_cast<double>(taps.cut_parent_count()), "count", 1},
      {"taps.fused_settle_frac", Ratio(static_cast<double>(fused), static_cast<double>(settles)),
       "frac", settles},
      {"exec.dispatches_per_frame", Ratio(static_cast<double>(dispatches), ntf), "count", nt},
      {"exec.util", Median(util), "frac", nt},
      {"exec.imbalance", Ratio(busy_max, busy_sum / workers), "ratio",
       static_cast<uint64_t>(workers)},
      {"exec.components", static_cast<double>(ps.components), "count", 1},
      {"exec.cuts_made", static_cast<double>(ps.cuts_made), "count", 1},
      {"telemetry.flush_ms.p50", Median(flush_ms), "ms", nt},
      {"telemetry.records_per_frame", Ratio(static_cast<double>(records), ntf), "count", nt},
      {"telemetry.ns_per_record",
       Ratio(static_cast<double>(flush_total), static_cast<double>(records)), "ns", records},
      {"telemetry.delivered_frac",
       Ratio(static_cast<double>(records), static_cast<double>(records + dropped)), "frac",
       records + dropped},
      {"sched.plan_hit_frac", Ratio(replayed, replayed + single), "frac",
       static_cast<uint64_t>(replayed + single)},
      {"sched.plan_waste_frac", Ratio(discarded, planned), "frac",
       static_cast<uint64_t>(planned)},
      {"sched.plans_per_sim_s", Ratio(built, nf * kFrameSimSeconds), "1/s", n},
      {"kernel.churn_ms.p50", Median(churn_ms), "ms", churn_ms.size()},
      {"frames.failed_frac", Ratio(static_cast<double>(telemetry_failed), nf), "frac", n},
      {"trace.untraced_frame_ms.p50", Median(plain_ms), "ms", plain_ms.size()},
      {"trace.overhead_frac", Median(overhead), "frac", overhead.size()},
  };
  std::printf("layers: churn + head + flush + quanta == frame wall in %llu of %llu traced "
              "frames\n",
              static_cast<unsigned long long>(nt - split_mismatch),
              static_cast<unsigned long long>(nt));
  std::printf("tracing overhead: traced frame p50 %.6f ms vs untraced %.6f ms; paired "
              "leg ratio median %+.4f over %zu rounds\n",
              Median(wall_ms), Median(plain_ms), Median(overhead), overhead.size());
  std::printf("exec and telemetry record counts are of delivered records (delivered_frac "
              "%.4f)\n",
              Ratio(static_cast<double>(records), static_cast<double>(records + dropped)));
  PrintFrameAccounting(n, telemetry_failed, lossy, T);
  WriteSpans(o, w, span_frames);
  if (split_mismatch != 0) {
    r.correct = false;
    r.why = "CHECK FAILED: frame split does not sum to frame wall time";
    return r;
  }
  Judge(w, T, snapshot, &r);
  return r;
}

// -- Smoke test ------------------------------------------------------------------------

// Every workload at reduced size through both measurement paths and its
// checks, then a deliberately perturbed reserve level / fingerprint that the
// checks must catch. Exit 0 only if every expectation holds.
int Smoke() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("smoke: %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };
  for (WorkloadKind kind :
       {WorkloadKind::kFleetSteady, WorkloadKind::kFleetGiantChurn, WorkloadKind::kDeviceApps}) {
    const Workload w = MakeWorkload(kind, 7, Scale::Smoke());
    Options o;
    o.kind = kind;
    o.seed = 7;
    o.seconds = 0.1;
    for (bool trace : {false, true}) {
      o.trace = trace;
      const RunResult r = trace ? MeasureLayers(o, w) : MeasureEndToEnd(o, w);
      expect(r.correct && r.failed == 0,
             std::string(w.name()) + (trace ? " traced" : " untraced") + " run passes checks");
    }

    // The checks must fail once an output is tampered with.
    std::unique_ptr<Rig> rig = w.Build(false);
    Fingerprint snapshot;
    while (rig->frames_run <= w.fingerprint_frame()) {
      if (rig->frames_run == w.fingerprint_frame()) {
        snapshot = TakeFingerprint(*rig);
      }
      RunFrame(w, *rig);
    }
    std::string why;
    expect(w.Check(*rig, snapshot, &why), std::string(w.name()) + " unperturbed rig passes");
    cinder::Kernel& k = rig->sim->kernel();
    std::string what;
    switch (kind) {
      case WorkloadKind::kFleetSteady:
        k.LookupTyped<cinder::Reserve>(rig->phones[0].fg)->Deposit(1);
        what = "+1 nJ in a phone reserve";
        break;
      case WorkloadKind::kFleetGiantChurn:
        k.LookupTyped<cinder::Reserve>(rig->relay_component.back())->Deposit(1);
        what = "+1 nJ in a relay hop";
        break;
      case WorkloadKind::kDeviceApps:
        snapshot.reserve_digest ^= 1;
        what = "one flipped fingerprint bit";
        break;
    }
    why.clear();
    const bool caught = !w.Check(*rig, snapshot, &why);
    expect(caught, std::string(w.name()) + ": " + what + " is caught");
    std::printf("smoke:   (%s)\n", why.substr(0, 100).c_str());
  }
  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// Runs `body` in a forked child and returns its exit code. ru_maxrss
// survives exec, so a process started by a large launcher (run.py's Python)
// would report the launcher's footprint as its own peak; a fresh child of
// this small process starts from this process's footprint instead.
int RunInChild(const std::function<int()>& body) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    return body();
  }
  if (pid == 0) {
    const int code = body();
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return 1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_steady|fleet_giant_churn|device_apps --seed N "
               "--seconds S --trace 0|1 [--commit C] [--source-digest D] [--spans-dir DIR]\n"
               "       %s --smoke\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      return Smoke();
    }
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      if (!ParseWorkload(v, &o.kind)) {
        return Usage(argv[0]);
      }
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        return Usage(argv[0]);
      }
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else if (a == "--spans-dir") {
      o.spans_dir = v;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (end == v.c_str() || *end != '\0')) {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !(o.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  return RunInChild([&o] {
    try {
      const Workload w = MakeWorkload(o.kind, o.seed, Scale::Full());
      const RunResult r = o.trace ? MeasureLayers(o, w) : MeasureEndToEnd(o, w);
      PrintResult(o, w, r);
      return r.correct ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: %s\n", e.what());
      return 1;
    }
  });
}
