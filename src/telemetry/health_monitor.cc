#include "src/telemetry/health_monitor.h"

#include <cmath>

namespace cinder {

const char* AlarmKindName(AlarmKind kind) {
  switch (kind) {
    case AlarmKind::kConservationDrift:
      return "conservation-drift";
    case AlarmKind::kRecordLoss:
      return "record-loss";
    case AlarmKind::kWorkerImbalance:
      return "worker-imbalance";
    case AlarmKind::kReserveStarvation:
      return "reserve-starvation";
    case AlarmKind::kShardStall:
      return "shard-stall";
    default:
      return "unknown";
  }
}

HealthMonitor::HealthMonitor(HealthConfig cfg) : cfg_(cfg) {
  if (cfg_.max_retained_alarms == 0) {
    cfg_.max_retained_alarms = 1;
  }
}

void HealthMonitor::Raise(AlarmKind kind, const WindowStats& w, uint32_t subject,
                          int64_t value, int64_t bound) {
  Alarm a;
  a.kind = kind;
  a.window = w.index;
  a.time_us = w.end_time_us;
  a.subject = subject;
  a.value = value;
  a.bound = bound;
  ++counts_[static_cast<size_t>(kind)];
  ++total_alarms_;
  if (alarms_.size() >= cfg_.max_retained_alarms) {
    alarms_.erase(alarms_.begin());
  }
  alarms_.push_back(a);
  if (cb_) {
    cb_(a);
  }
}

void HealthMonitor::OnWindow(const LiveAggregator& agg, const WindowStats& w) {
  if (cfg_.check_record_loss && w.ring_drop_delta > 0) {
    Raise(AlarmKind::kRecordLoss, w, 0, static_cast<int64_t>(w.ring_drop_delta), 0);
  }

  if (cfg_.check_conservation) {
    if (w.decay_leak_deposits != 0) {
      conservation_armed_ = true;
    }
    // A lossy window legitimately misses deposit records — the invariant
    // only holds on a complete stream, so skip it rather than false-fire.
    if (conservation_armed_ && w.ring_drop_delta == 0) {
      // Wrapping, like the fold's sums: corrupt records can carry any value.
      const int64_t drift = static_cast<int64_t>(static_cast<uint64_t>(w.decay_flow) -
                                                 static_cast<uint64_t>(w.decay_leak_deposits));
      if (drift > cfg_.conservation_tolerance_nj || drift < -cfg_.conservation_tolerance_nj) {
        Raise(AlarmKind::kConservationDrift, w, 0, drift, cfg_.conservation_tolerance_nj);
      }
    }
  }

  if (cfg_.check_imbalance) {
    uint64_t total_busy = 0;
    uint64_t max_busy = 0;
    uint32_t max_worker = 0;
    uint32_t n = 0;
    for (const auto& wk : agg.worker_live()) {
      if (!wk.seen) {
        continue;
      }
      ++n;
      total_busy += wk.window_busy_ns;
      if (wk.window_busy_ns > max_busy) {
        max_busy = wk.window_busy_ns;
        max_worker = wk.worker;
      }
    }
    if (n >= 2) {
      const double mean = static_cast<double>(total_busy) / n;
      if (mean >= static_cast<double>(cfg_.imbalance_min_mean_busy_ns) &&
          static_cast<double>(max_busy) > cfg_.imbalance_ratio * mean) {
        Raise(AlarmKind::kWorkerImbalance, w, max_worker, static_cast<int64_t>(max_busy),
              static_cast<int64_t>(cfg_.imbalance_ratio * mean));
      }
    }
  }

  if (cfg_.check_starvation) {
    for (const auto& [id, res] : agg.reserve_live()) {
      if (res.window_withdraws > 0 && res.level <= cfg_.starvation_level_nj) {
        Raise(AlarmKind::kReserveStarvation, w, id, res.level, cfg_.starvation_level_nj);
      }
    }
  }

  if (cfg_.check_stall) {
    for (const auto& s : agg.shard_live()) {
      // window_batches > 0 keeps rows that left the plan (a topology change
      // or a repacking) from alarming forever on their residual EWMA.
      if (s.taps > 0 && s.window_batches > 0 && s.window_tap_flow == 0 &&
          s.ewma_primed && s.tap_flow_ewma > cfg_.stall_min_ewma_nj) {
        Raise(AlarmKind::kShardStall, w, s.shard, 0,
              static_cast<int64_t>(std::llround(s.tap_flow_ewma)));
      }
    }
  }
}

}  // namespace cinder
