// energytop — live terminal view over a streaming Cinder trace.
//
// Follows a trace file a FileStreamSink is still writing (or reads a closed
// one) and feeds every record to a LiveAggregator with a HealthMonitor
// attached — the same fold TraceReader runs offline, so this tool keeps no
// record fold of its own. It prints one line per closed aggregation window
// — flows, scheduler and syscall rates, drops — plus an ALARM line whenever
// a health check fires. When the stream finalizes (or --once drains what is
// on disk) it prints the settled per-work-item / per-worker / alarm summary
// from the aggregator's exact running totals. A stream that never finalized
// (the writer died, or the file was chopped) is summarized with the same
// TRUNCATED hint energytrace prints: its totals cover the prefix only.
//
// Usage:
//   energytop <trace-file>                    follow until finalized
//   energytop <trace-file> --once             drain what's on disk, summarize
//   energytop <trace-file> --poll-ms N        poll cadence, N >= 1 (default 200)
//   energytop <trace-file> --window-frames N  frames per window, N >= 1
//                                             (default 16)
//   energytop <trace-file> --alarms N         also print a scrollback of the
//                                             last N alarms with window ids
//                                             (bounded by the monitor's
//                                             retention, currently 64)
//
// Exits 0 on success (including a clean --once on an unfinished stream),
// 1 on a read error, 2 on a usage error (unknown flag, missing file
// argument, or a numeric value that is not a whole number in range).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/telemetry/health_monitor.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_record.h"
#include "tools/trace_follow.h"

namespace {

double Mj(int64_t nj) { return static_cast<double>(nj) / 1e6; }
double Mj(double nj) { return nj / 1e6; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace-file> [--once] [--poll-ms N] [--window-frames N] "
               "[--alarms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    return Usage(argv[0]);
  }
  const std::string path = argv[1];
  bool once = false;
  uint32_t poll_ms = 200;
  uint32_t window_frames = 16;
  uint32_t alarm_scrollback = 0;
  using cinder::tools::ParseFlagU32;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--poll-ms") == 0 && i + 1 < argc) {
      if (!ParseFlagU32(argv[++i], 1, &poll_ms)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--window-frames") == 0 && i + 1 < argc) {
      if (!ParseFlagU32(argv[++i], 1, &window_frames)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--alarms") == 0 && i + 1 < argc) {
      if (!ParseFlagU32(argv[++i], 0, &alarm_scrollback)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }

  cinder::LiveAggregatorConfig acfg;
  acfg.frames_per_window = window_frames;
  cinder::LiveAggregator agg(acfg);
  cinder::HealthMonitor monitor;
  monitor.set_callback([](const cinder::Alarm& a) {
    std::printf("ALARM  %-18s window %-5" PRIu64 " subject %-6u value %" PRId64
                " bound %" PRId64 "\n",
                cinder::AlarmKindName(a.kind), a.window, a.subject, a.value, a.bound);
  });
  agg.set_monitor(&monitor);
  agg.set_window_callback([](const cinder::WindowStats& w) {
    // Plan-hit ratio: share of the window's picks replayed from a K-quanta
    // run plan (the rest were full single-quantum scans).
    const double plan_pct =
        w.sched_picks > 0
            ? 100.0 * static_cast<double>(w.sched_planned_picks) / static_cast<double>(w.sched_picks)
            : 0.0;
    std::printf("window %-5" PRIu64 " t=%8.1fms  tap %9.3f mJ  decay %8.3f mJ  picks %5" PRIu64
                " (%3" PRIu64 " idle, %5.1f%% plan)  rsv-ops %5" PRIu64 "  drops %" PRIu64 "\n",
                w.index, static_cast<double>(w.end_time_us) / 1e3, Mj(w.tap_flow),
                Mj(w.decay_flow), w.sched_picks, w.sched_idle_picks, plan_pct, w.reserve_ops,
                w.ring_drop_delta);
  });

  std::string error;
  cinder::tools::FollowOptions opts;
  opts.poll_ms = poll_ms;
  opts.once = once;
  bool partial_tail = false;
  const auto result = cinder::tools::FollowTraceFile(
      path, opts, [&agg](const cinder::TraceRecord& r) { agg.OnRecord(r); }, &error,
      &partial_tail);
  if (result == cinder::tools::FollowResult::kError) {
    std::fprintf(stderr, "energytop: %s\n", error.c_str());
    return 1;
  }

  std::printf("\n%s: %" PRIu64 " records, %" PRIu64 " frames, %" PRIu64
              " windows closed, ring drops %" PRIu64 "\n",
              path.c_str(), agg.records_seen(), agg.frames(), agg.windows_closed(),
              agg.ring_dropped());
  if (result == cinder::tools::FollowResult::kIdleTimeout || partial_tail) {
    std::printf("TRUNCATED stream: the writer never finalized this file (or it was chopped); "
                "totals cover the parsed prefix only\n");
  }
  if (agg.corrupt_records() > 0) {
    std::printf("CORRUPT records skipped: %" PRIu64 " (shard index >= %u)\n",
                agg.corrupt_records(), cinder::kMaxTraceShards);
  }
  std::printf("totals: tap %.3f mJ, decay %.3f mJ, %" PRIu64 " picks (%" PRIu64 " idle, %" PRIu64
              " planned, %" PRIu64 " plan builds)\n",
              Mj(agg.TotalTapFlow()), Mj(agg.TotalDecayFlow()), agg.SchedPicks(),
              agg.SchedIdlePicks(), agg.SchedPlannedPicks(), agg.SchedPlanBuilds());
  if (agg.BoundarySettles() > 0) {
    std::printf("boundary: %" PRIu64 " settles, %.3f mJ across cuts, %" PRIu64
                " lanes applied, %" PRIu64 " fused fallbacks\n",
                agg.BoundarySettles(), Mj(agg.BoundaryFlow()), agg.BoundaryLanesApplied(),
                agg.FusedSettles());
  }

  auto shards = agg.shard_live();
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.shard < b.shard; });
  if (!shards.empty()) {
    std::printf("\nper work item (EWMA per %u-frame window):\n", window_frames);
    std::printf("  %6s %6s %6s %9s %12s %12s %14s\n", "shard", "shards", "taps", "batches",
                "tap mJ", "decay mJ", "tap ewma mJ/w");
    for (const auto& s : shards) {
      std::printf("  %6u %6u %6u %9" PRIu64 " %12.3f %12.3f %14.4f\n", s.shard, s.shards,
                  s.taps, s.batches, Mj(s.tap_flow), Mj(s.decay_flow), Mj(s.tap_flow_ewma));
    }
  }

  const auto workers = agg.worker_live();
  size_t active_workers = 0;
  for (const auto& w : workers) {
    if (w.seen) {
      ++active_workers;
    }
  }
  if (active_workers > 0) {
    std::printf("\nper-worker:\n");
    std::printf("  %6s %10s %10s %12s %12s %12s\n", "worker", "dispatches", "runs", "busy ms",
                "ewma ms/w", "idle wins");
    for (const auto& w : workers) {
      if (!w.seen) {
        continue;
      }
      std::printf("  %6u %10" PRIu64 " %10" PRIu64 " %12.3f %12.4f %12" PRIu64 "\n", w.worker,
                  w.dispatches, w.shard_runs + w.range_runs,
                  static_cast<double>(w.busy_ns) / 1e6, w.busy_ewma_ns / 1e6, w.idle_windows);
    }
  }

  const auto& reserves = agg.reserve_live();
  if (!reserves.empty()) {
    std::printf("\nreserves (%zu with traffic): ", reserves.size());
    size_t shown = 0;
    for (const auto& [id, res] : reserves) {
      if (shown++ == 8) {
        std::printf("...");
        break;
      }
      std::printf("#%u=%.3fmJ ", id, Mj(res.level));
    }
    std::printf("\n");
  }

  if (monitor.total_alarms() > 0) {
    std::printf("\nalarms (%" PRIu64 " total):\n", monitor.total_alarms());
    for (size_t k = 0; k < static_cast<size_t>(cinder::AlarmKind::kKindCount); ++k) {
      const auto kind = static_cast<cinder::AlarmKind>(k);
      if (monitor.count(kind) > 0) {
        std::printf("  %-18s %" PRIu64 "\n", cinder::AlarmKindName(kind), monitor.count(kind));
      }
    }
    if (alarm_scrollback > 0) {
      // Bounded scrollback: the monitor retains the most recent alarms (64
      // by default), oldest first; show the tail the user asked for.
      const auto& retained = monitor.alarms();
      const size_t shown = std::min<size_t>(alarm_scrollback, retained.size());
      std::printf("  last %zu of %" PRIu64 " (monitor retains %zu):\n", shown,
                  monitor.total_alarms(), retained.size());
      for (size_t i = retained.size() - shown; i < retained.size(); ++i) {
        const cinder::Alarm& a = retained[i];
        std::printf("    window %-5" PRIu64 " %-18s subject %-6u value %" PRId64
                    " bound %" PRId64 "\n",
                    a.window, cinder::AlarmKindName(a.kind), a.subject, a.value, a.bound);
      }
    }
  } else {
    std::printf("\nno alarms\n");
  }
  return 0;
}
