// LiveAggregator — fixed-cost online aggregation over a telemetry stream.
//
// A TraceSink that folds each frame into windowed state as the run executes:
// exact running totals (the same flow/load/billing queries TraceReader
// answers offline — one query vocabulary for live and post-hoc analysis),
// plus per-shard flow EWMAs, per-reserve level EWMAs, per-worker busy/idle
// histograms, and scheduler/syscall rates per window. Memory is O(shards +
// workers + threads + reserves) and per-record work is O(1): run length
// never grows the aggregator, which is what makes it safe to leave attached
// to an unbounded fleet run (the streaming half of docs/TELEMETRY.md).
//
// A *window* is a fixed number of frames (frames_per_window; one frame ==
// one tap batch in the engine's wiring). When a window closes, the window's
// accumulators are folded into the EWMAs (ewma' = alpha*window + (1-alpha)*
// ewma; the first window initializes the EWMA), the attached HealthMonitor
// checks its invariants against the still-intact window state, the window
// callback fires, and the accumulators reset.
//
// The aggregator is stream-driven, not domain-driven: window ticks come
// from kFrameMark records, so feeding it records from a file (energytop's
// --follow loop) behaves identically to attaching it as a live sink.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/telemetry/trace_reader.h"
#include "src/telemetry/trace_sink.h"

namespace cinder {

class HealthMonitor;

struct LiveAggregatorConfig {
  // Frames folded into one window. With the simulator's 10 ms tap batches,
  // the default 16 makes a ~160 ms (sim time) window.
  uint32_t frames_per_window = 16;
  // Per-window EWMA smoothing: ewma' = alpha * window + (1 - alpha) * ewma.
  double ewma_alpha = 0.25;
};

// Summary of one closed window — handed to the HealthMonitor and the window
// callback while the per-shard / per-worker window state is still intact.
struct WindowStats {
  uint64_t index = 0;       // 0-based closed-window counter.
  uint64_t last_frame = 0;  // Sequence number of the closing frame mark.
  uint32_t frames = 0;
  int64_t start_time_us = 0;  // Domain clock spanned by the window's marks.
  int64_t end_time_us = 0;
  int64_t tap_flow = 0;   // Sum of kShardBatch flows in the window (nJ).
  int64_t decay_flow = 0;
  // Sum of decay-leak deposit records (kReserveDeposit with
  // kReserveOpDecayLeak). With a complete stream and the default mask this
  // equals decay_flow exactly — the conservation monitor's invariant.
  int64_t decay_leak_deposits = 0;
  uint64_t sched_picks = 0;
  uint64_t sched_idle_picks = 0;
  // Picks replayed from a scheduler run plan (kSchedPickPlanned flag) and
  // plan builds in the window; planned/picks is the live plan-hit ratio.
  uint64_t sched_planned_picks = 0;
  uint64_t sched_plan_builds = 0;
  uint64_t reserve_ops = 0;  // Deposit + withdraw records (syscall rate).
  uint64_t dispatches = 0;
  uint64_t records = 0;  // All records in the window, marks included.
  // Ring-overwrite drops that happened during this window (delta of the
  // frame marks' cumulative counter). Nonzero = the window undercounts.
  uint64_t ring_drop_delta = 0;
};

class LiveAggregator : public TraceSink {
 public:
  // Per-window busy-ns histogram bucket count: bucket i holds windows whose
  // busy time was in [2^i, 2^(i+1)) ns (bucket 31 clamps); all-idle windows
  // count in WorkerLive::idle_windows instead.
  static constexpr uint32_t kBusyHistBuckets = 32;

  explicit LiveAggregator(LiveAggregatorConfig cfg = {});

  // The monitor's OnWindow runs at every window close, before the window
  // accumulators reset. Not owned; null detaches.
  void set_monitor(HealthMonitor* monitor) { monitor_ = monitor; }
  void set_window_callback(std::function<void(const WindowStats&)> cb) {
    window_cb_ = std::move(cb);
  }
  const LiveAggregatorConfig& config() const { return cfg_; }

  // Discards all state (a fresh epoch). Attaching to a domain resets too.
  void Reset();

  // TraceSink: feed records here directly when consuming a file instead of
  // a live domain (energytop does) — the aggregator cannot tell the
  // difference, window ticks ride on the kFrameMark records either way.
  void OnAttach(const TraceDomain& domain) override;
  void OnRecord(const TraceRecord& r) override;

  // -- TraceReader query vocabulary (exact running totals) ----------------------
  // These mirror TraceReader's signatures and struct types so call sites
  // written against the offline reader run unchanged against the live view;
  // on the same complete stream the answers are identical (tests pin this).
  int64_t TotalTapFlow() const { return total_tap_flow_; }
  int64_t TotalDecayFlow() const { return total_decay_flow_; }
  std::vector<TraceReader::ShardFlow> FlowByShard() const;
  std::vector<TraceReader::WorkerLoad> WorkerLoads() const;
  std::vector<TraceReader::ThreadCharge> CpuChargeByThread() const;
  uint64_t SchedPicks() const { return sched_picks_; }
  uint64_t SchedIdlePicks() const { return sched_idle_picks_; }
  uint64_t SchedPlannedPicks() const { return sched_planned_picks_; }
  uint64_t SchedPlanBuilds() const { return sched_plan_builds_; }
  uint64_t frames() const { return frames_; }
  uint64_t records_seen() const { return records_seen_; }
  // Records skipped as corrupt (IsCorruptShardRecord); records_seen() and
  // the window record counts include them, no flow or shard query does.
  uint64_t corrupt_records() const { return corrupt_records_; }
  // Cumulative ring-overwrite drops as stamped into the latest frame mark.
  uint64_t ring_dropped() const { return ring_dropped_; }

  // -- Windowed live state -------------------------------------------------------
  uint64_t windows_closed() const { return windows_closed_; }
  // The most recently closed window (index windows_closed()-1); zeros until
  // the first window closes.
  const WindowStats& last_window() const { return last_window_; }

  struct ShardLive {
    uint32_t shard = 0;
    bool seen = false;
    // Topology from the latest kPlanShard record (TraceReader parity).
    uint32_t taps = 0;
    uint32_t decay_reserves = 0;
    uint32_t ranges = 1;
    uint64_t batches = 0;
    int64_t tap_flow = 0;  // Exact running sums.
    int64_t decay_flow = 0;
    // Current (open) window accumulators — the monitor reads these at close.
    int64_t window_tap_flow = 0;
    int64_t window_decay_flow = 0;
    uint64_t window_batches = 0;
    // Per-window EWMAs (nJ per window), folded at each close.
    double tap_flow_ewma = 0.0;
    double decay_flow_ewma = 0.0;
    bool ewma_primed = false;
  };
  // Indexed by shard (dense; untouched shards have batches == 0).
  const std::vector<ShardLive>& shard_live() const { return shards_; }

  struct WorkerLive {
    uint32_t worker = 0;
    bool seen = false;
    uint64_t dispatches = 0;
    uint64_t shard_runs = 0;
    uint64_t range_runs = 0;
    uint64_t busy_ns = 0;  // Exact running sum of timed work.
    uint64_t window_busy_ns = 0;
    double busy_ewma_ns = 0.0;
    bool ewma_primed = false;
    uint64_t idle_windows = 0;  // Closed windows with zero busy ns.
    uint64_t busy_hist[kBusyHistBuckets] = {};
  };
  const std::vector<WorkerLive>& worker_live() const { return workers_; }

  struct ReserveLive {
    uint32_t id = 0;  // Low 32 bits of the reserve id (record `actor`).
    int64_t level = 0;  // Level-after of the newest deposit/withdraw record.
    double level_ewma = 0.0;
    bool ewma_primed = false;
    uint64_t ops = 0;
    uint64_t window_ops = 0;
    uint64_t window_withdraws = 0;
  };
  // Keyed by reserve id; populated only for reserves that appear in
  // deposit/withdraw records (syscall traffic or decay-leak sink deposits).
  const std::map<uint32_t, ReserveLive>& reserve_live() const { return reserves_; }

 private:
  void CloseWindow(uint64_t closing_frame_seq, int64_t mark_time_us);
  ShardLive& ShardAt(uint32_t shard);
  WorkerLive& WorkerAt(uint32_t worker);

  LiveAggregatorConfig cfg_;
  HealthMonitor* monitor_ = nullptr;
  std::function<void(const WindowStats&)> window_cb_;

  // Exact running totals (the TraceReader-vocabulary side).
  int64_t total_tap_flow_ = 0;
  int64_t total_decay_flow_ = 0;
  uint64_t sched_picks_ = 0;
  uint64_t sched_idle_picks_ = 0;
  uint64_t sched_planned_picks_ = 0;
  uint64_t sched_plan_builds_ = 0;
  uint64_t frames_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t corrupt_records_ = 0;
  uint64_t ring_dropped_ = 0;

  std::vector<ShardLive> shards_;
  std::vector<WorkerLive> workers_;
  std::map<uint32_t, TraceReader::ThreadCharge> threads_;
  std::map<uint32_t, ReserveLive> reserves_;

  // Open-window accumulators (the scalar half; per-shard/worker/reserve
  // window fields live in their structs above).
  uint32_t frames_in_window_ = 0;
  bool window_has_start_ = false;
  int64_t window_start_time_us_ = 0;
  int64_t window_tap_flow_ = 0;
  int64_t window_decay_flow_ = 0;
  int64_t window_leak_deposits_ = 0;
  uint64_t window_sched_picks_ = 0;
  uint64_t window_sched_idle_ = 0;
  uint64_t window_sched_planned_ = 0;
  uint64_t window_plan_builds_ = 0;
  uint64_t window_reserve_ops_ = 0;
  uint64_t window_dispatches_ = 0;
  uint64_t window_records_ = 0;
  uint64_t window_drop_base_ = 0;  // ring_dropped_ at the last close.

  uint64_t windows_closed_ = 0;
  WindowStats last_window_;
};

}  // namespace cinder
