// HealthMonitor — invariant checks over closed aggregation windows.
//
// Attached to a LiveAggregator (set_monitor), it runs once per closed
// window, while the window's per-shard / per-worker / per-reserve
// accumulators are still intact, and raises Alarms through a callback plus
// a bounded retained log. The catalog (docs/TELEMETRY.md has the full
// semantics):
//
//   kConservationDrift  Decay-pass outflow vs the decay-leak deposits the
//                       reserves actually received. Every work item's
//                       kShardBatch carries its decay outflow (v1); its
//                       kReserveOpUnitLeak record sums what its shards'
//                       sinks received, counted at each deposit, and the
//                       merge's kReserveOpDecayLeak records carry what the
//                       battery root received. On a complete stream the
//                       window sums are equal to the nanojoule. The check
//                       arms on the first window that carries any leak
//                       deposit (masks without reserve ops never arm) and
//                       skips windows with record loss.
//   kRecordLoss         Ring-overwrite drops happened during the window
//                       (the frame marks' cumulative counter advanced) —
//                       every downstream aggregate now undercounts.
//   kWorkerImbalance    One worker's window busy-ns exceeds
//                       imbalance_ratio x the all-worker mean, with a mean
//                       floor so idle fleets don't alarm on noise.
//   kReserveStarvation  A reserve drained to <= starvation_level_nj in a
//                       window where it was still being drawn from.
//   kShardStall         A flow row (one work item: a unit's shards, a split
//                       shard, a cut member) with planned taps ran its
//                       batches but moved zero energy, while its flow EWMA
//                       says it recently flowed — a stuck pool, not an idle
//                       one. The subject is the row's first shard.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/telemetry/live_aggregator.h"

namespace cinder {

enum class AlarmKind : uint8_t {
  kConservationDrift = 0,
  kRecordLoss = 1,
  kWorkerImbalance = 2,
  kReserveStarvation = 3,
  kShardStall = 4,
  kKindCount = 5,
};

const char* AlarmKindName(AlarmKind kind);

struct Alarm {
  AlarmKind kind = AlarmKind::kRecordLoss;
  uint64_t window = 0;   // WindowStats::index that raised it.
  int64_t time_us = 0;   // Window end time (domain clock).
  uint32_t subject = 0;  // First shard / worker / reserve id; 0 when global.
  int64_t value = 0;     // The measured quantity (units per kind).
  int64_t bound = 0;     // The threshold it crossed.
};

struct HealthConfig {
  bool check_conservation = true;
  // Allowed |decay_flow - leak_deposits| per window, nJ. The engine's
  // accounting is exact, so the default tolerance is zero.
  int64_t conservation_tolerance_nj = 0;

  bool check_record_loss = true;

  bool check_imbalance = true;
  // Fire when max window busy-ns > ratio x mean (mean over all workers).
  double imbalance_ratio = 4.0;
  // ...but only when the mean itself is at least this (quiet windows skip).
  uint64_t imbalance_min_mean_busy_ns = 100 * 1000;

  bool check_starvation = true;
  // A reserve at or below this level while withdrawn from is starving.
  int64_t starvation_level_nj = 0;

  bool check_stall = true;
  // A zero-flow window only stalls a row whose tap-flow EWMA was above
  // this (units: nJ per window) — never-flowing rows stay silent.
  double stall_min_ewma_nj = 1.0;

  // Retained alarm log bound; older alarms are evicted (counters keep the
  // full totals).
  size_t max_retained_alarms = 64;
};

class HealthMonitor {
 public:
  using AlarmCallback = std::function<void(const Alarm&)>;

  explicit HealthMonitor(HealthConfig cfg = {});

  void set_callback(AlarmCallback cb) { cb_ = std::move(cb); }
  const HealthConfig& config() const { return cfg_; }

  // Runs every check against one closed window. Called by the aggregator;
  // call directly only in tests.
  void OnWindow(const LiveAggregator& agg, const WindowStats& w);

  // Most recent alarms, oldest first, bounded by max_retained_alarms.
  const std::vector<Alarm>& alarms() const { return alarms_; }
  uint64_t total_alarms() const { return total_alarms_; }
  uint64_t count(AlarmKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }

 private:
  void Raise(AlarmKind kind, const WindowStats& w, uint32_t subject, int64_t value,
             int64_t bound);

  HealthConfig cfg_;
  AlarmCallback cb_;
  std::vector<Alarm> alarms_;
  uint64_t counts_[static_cast<size_t>(AlarmKind::kKindCount)] = {};
  uint64_t total_alarms_ = 0;
  // Conservation checks only start once a window has shown decay-leak
  // deposits — before that the record mask may simply exclude reserve ops.
  bool conservation_armed_ = false;
};

}  // namespace cinder
