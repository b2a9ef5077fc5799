// LiveAggregator — the one fold over a telemetry stream.
//
// Every flow, load and billing query is defined here and nowhere else:
// engine flow totals (bit-for-bit equal to TapEngine's counters when no
// records were dropped), flow attribution per work item, worker load balance,
// per-thread CPU billing, scheduler pick and plan counts, and boundary
// settlement. Attach it to a TraceDomain as a sink to answer them live; a
// TraceReader feeds it a retained spill or a trace file in stream order to
// answer them offline; energytop feeds it a file it is tailing. The fold
// cannot tell the three apart, so offline equals live by construction.
//
// Flow rows follow the engine's records: one kShardBatch per work item per
// batch, so a row is keyed by the item's first shard and covers its span of
// shards (a work unit's contiguous run; a split shard or a cut member alone).
// A row's topology (taps, decay reserves) is the sum of the kPlanShard
// records over its span, recomputed only when the span or the plan changes.
// Exact per-shard flow is the engine's (TapEngine::shard_stats); the trace
// carries it per work item, which is what keeps a fleet stream complete.
//
// On top of the exact running totals it keeps windowed state: per-row flow
// EWMAs, per-reserve level EWMAs, per-worker busy/idle histograms, and
// scheduler/syscall rates per window. Memory is O(shards + workers +
// threads + reserves) and per-record work is O(1): run length never grows
// the aggregator, which is what makes it safe to leave attached to an
// unbounded fleet run (the streaming half of docs/TELEMETRY.md).
//
// A *window* is a fixed number of frames (frames_per_window; one frame ==
// one tap batch in the engine's wiring). When a window closes, the window's
// accumulators are folded into the EWMAs (ewma' = alpha*window + (1-alpha)*
// ewma; the first window initializes the EWMA), the attached HealthMonitor
// checks its invariants against the still-intact window state, the window
// callback fires, and the accumulators reset. Window ticks come from
// kFrameMark records, never from a domain.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/telemetry/trace_sink.h"

namespace cinder {

class HealthMonitor;

// -- Query result rows ---------------------------------------------------------------
// One flow row per work item: shards [shard, shard + shards).
struct ShardFlow {
  uint32_t shard = 0;           // The row's first shard.
  uint32_t shards = 1;          // Its span, from the latest kShardBatch record.
  uint32_t taps = 0;            // Summed kPlanShard values over the span.
  uint32_t decay_reserves = 0;  // Summed kPlanShard values over the span.
  uint32_t ranges = 1;          // The first shard's kPlanShard value.
  uint64_t batches = 0;         // kShardBatch records seen.
  int64_t tap_flow = 0;
  int64_t decay_flow = 0;
};

// Unlike the flow rows this reflects the actual execution interleaving — it
// varies run to run and with the worker count (that is the point: it shows
// the balance).
struct WorkerLoad {
  uint32_t worker = 0;      // Slot: 0 = the calling thread.
  uint64_t dispatches = 0;  // Tickets claimed (kDispatch).
  uint64_t shard_runs = 0;  // Shards timed (kShardTiming; a unit counts each).
  uint64_t range_runs = 0;  // Range passes timed (kRangeTiming).
  uint64_t busy_ns = 0;     // Summed timed nanoseconds.
};

struct ThreadCharge {
  uint32_t thread = 0;  // Low 32 bits of the thread id.
  uint64_t quanta = 0;  // kCpuCharge records.
  int64_t billed = 0;   // Summed nJ — equals the meter's per-thread CPU row.
};

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
  // kReserveOpDecayLeak or kReserveOpUnitLeak). With a complete stream and
  // the default mask this equals decay_flow exactly — the conservation
  // monitor's invariant.
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

  // TraceSink. Feeding records here directly (TraceReader and energytop do)
  // is the same as attaching to a domain: window ticks ride on the
  // kFrameMark records either way.
  void OnAttach(const TraceDomain& domain) override;
  void OnRecord(const TraceRecord& r) override;

  // -- Exact running totals ------------------------------------------------------
  // Sums of the kShardBatch records. With a complete stream (nothing
  // dropped, every batch flushed) these equal TapEngine::total_tap_flow() /
  // total_decay_flow() bit-for-bit — the fleet example asserts it.
  int64_t TotalTapFlow() const { return total_tap_flow_; }
  int64_t TotalDecayFlow() const { return total_decay_flow_; }
  // One row per work item seen, ascending by first shard. The rows' flows
  // sum to the totals above; after a plan rebuild changes the packing, rows
  // of the old and the new packing both remain, each with its own batches.
  std::vector<ShardFlow> FlowByShard() const;
  // One row per worker slot seen, ascending.
  std::vector<WorkerLoad> WorkerLoads() const;
  // One row per thread billed, ascending.
  std::vector<ThreadCharge> CpuChargeByThread() const;
  // kSchedPick records; the idle ones found nothing runnable (actor == 0);
  // the planned ones were replayed from a K-quanta run plan
  // (kSchedPickPlanned), the rest were full single-quantum scans. The
  // plan-hit ratio is SchedPlannedPicks() / SchedPicks().
  uint64_t SchedPicks() const { return sched_picks_; }
  uint64_t SchedIdlePicks() const { return sched_idle_picks_; }
  uint64_t SchedPlannedPicks() const { return sched_planned_picks_; }
  // kSchedPlanBuild records, and the total quanta those builds planned (v0).
  uint64_t SchedPlanBuilds() const { return sched_plan_builds_; }
  uint64_t SchedPlannedQuanta() const { return sched_planned_quanta_; }
  // kBoundarySettle records: one per cut parent component per batch when
  // the partitioner is cutting oversized components, zero otherwise.
  uint64_t BoundarySettles() const { return boundary_settles_; }
  // Summed boundary nJ settled at batch boundaries (v0). This flow is a
  // subset of TotalTapFlow(): boundary taps' transfers are already counted
  // in their members' kShardBatch records; this measures how much of the
  // total crossed a cut.
  int64_t BoundaryFlow() const { return boundary_flow_; }
  // Summed boundary taps settled (v1): lane applications on the lane path,
  // boundary entries replayed on the fused path.
  uint64_t BoundaryLanesApplied() const { return boundary_lanes_; }
  // Settles where the parent ran the fused serial fallback
  // (kBoundarySettleFused) instead of lane settlement.
  uint64_t FusedSettles() const { return fused_settles_; }
  // kFrameMark records seen.
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

  // One flow row (see ShardFlow), keyed by its first shard.
  struct ShardLive {
    uint32_t shard = 0;   // The row's first shard.
    uint32_t shards = 1;  // Span, from the latest kShardBatch record.
    // Topology summed over the span from the kPlanShard records.
    uint32_t taps = 0;
    uint32_t decay_reserves = 0;
    uint32_t ranges = 1;
    uint64_t plan_gen = ~uint64_t{0};  // Plan generation the sums are from.
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
  // Every flow row, in the order the stream first showed it — O(work items),
  // which keeps a window close O(rows) however many shards the fleet has.
  const std::vector<ShardLive>& shard_live() const { return rows_; }
  // The row whose first shard is `first_shard`, or null.
  const ShardLive* row(uint32_t first_shard) const {
    return first_shard < row_index_.size() && row_index_[first_shard] != 0
               ? &rows_[row_index_[first_shard] - 1]
               : nullptr;
  }

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
  // deposit/withdraw records (syscall traffic or the battery root's
  // decay-leak deposits; the per-item kReserveOpUnitLeak sums name no
  // reserve and stay out).
  const std::map<uint32_t, ReserveLive>& reserve_live() const { return reserves_; }

 private:
  void CloseWindow(uint64_t closing_frame_seq, int64_t mark_time_us);
  ShardLive& RowAt(uint32_t first_shard);
  WorkerLive& WorkerAt(uint32_t worker);
  // The kPlanShard values per shard; plan_gen_ counts the records, so a row
  // re-sums its span once after each rebuild.
  struct PlanShard {
    uint32_t taps = 0;
    uint32_t decay_reserves = 0;
    uint32_t ranges = 1;
  };
  std::vector<PlanShard> plan_;
  uint64_t plan_gen_ = 0;

  LiveAggregatorConfig cfg_;
  HealthMonitor* monitor_ = nullptr;
  std::function<void(const WindowStats&)> window_cb_;

  // Exact running totals.
  int64_t total_tap_flow_ = 0;
  int64_t total_decay_flow_ = 0;
  uint64_t sched_picks_ = 0;
  uint64_t sched_idle_picks_ = 0;
  uint64_t sched_planned_picks_ = 0;
  uint64_t sched_plan_builds_ = 0;
  uint64_t sched_planned_quanta_ = 0;
  uint64_t boundary_settles_ = 0;
  int64_t boundary_flow_ = 0;
  uint64_t boundary_lanes_ = 0;
  uint64_t fused_settles_ = 0;
  uint64_t frames_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t corrupt_records_ = 0;
  uint64_t ring_dropped_ = 0;

  std::vector<ShardLive> rows_;
  std::vector<uint32_t> row_index_;  // By first shard: index into rows_ + 1, 0 = none.
  std::vector<WorkerLive> workers_;
  std::map<uint32_t, ThreadCharge> threads_;
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
