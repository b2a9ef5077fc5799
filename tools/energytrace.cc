// energytrace — offline dump tool for Cinder telemetry trace files.
//
// Loads a trace written by TraceDomain::WriteFile or a FileStreamSink (the
// fleet example's optional 4th argument) with TraceReader and prints the
// stream summary and kind histogram from the reader, then the aggregate the
// reader folded: engine flow totals, boundary settlement, tap/decay
// attribution per work item (one row per kShardBatch span: a work unit's
// shards, a split shard or a cut member), worker load balance and
// per-thread CPU billing; and, from the retained records, the timeline of
// the work item covering a shard and (when the fine-grained kinds were
// enabled) per-tap flows.
//
// Usage:
//   energytrace <trace-file>                 summary + totals + tables
//   energytrace <trace-file> --timeline N    also print the timeline of the
//                                            work item covering shard N
//   energytrace <trace-file> --taps          also print per-tap flows
//   energytrace <trace-file> --follow        tail a streaming trace until it
//                                            finalizes, then summarize
//   energytrace <trace-file> --poll-ms N     follow poll cadence, N >= 1
//                                            (default 200)
//
// Exits 0 on success, 1 on a read error, 2 on a usage error (unknown flag,
// missing file argument, or a numeric value that is not a whole number in
// range).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/telemetry/trace_reader.h"
#include "src/telemetry/trace_record.h"
#include "tools/trace_follow.h"

namespace {

const char* KindName(uint8_t kind) {
  switch (static_cast<cinder::RecordKind>(kind)) {
    case cinder::RecordKind::kFrameMark: return "frame_mark";
    case cinder::RecordKind::kShardBatch: return "shard_batch";
    case cinder::RecordKind::kShardTiming: return "shard_timing";
    case cinder::RecordKind::kRangeTiming: return "range_timing";
    case cinder::RecordKind::kTapTransfer: return "tap_transfer";
    case cinder::RecordKind::kReserveDeposit: return "reserve_deposit";
    case cinder::RecordKind::kReserveWithdraw: return "reserve_withdraw";
    case cinder::RecordKind::kReserveDecay: return "reserve_decay";
    case cinder::RecordKind::kSchedPick: return "sched_pick";
    case cinder::RecordKind::kCpuCharge: return "cpu_charge";
    case cinder::RecordKind::kDispatch: return "dispatch";
    case cinder::RecordKind::kPlanTap: return "plan_tap";
    case cinder::RecordKind::kPlanShard: return "plan_shard";
    case cinder::RecordKind::kPlanReserve: return "plan_reserve";
    case cinder::RecordKind::kSchedPlanBuild: return "sched_plan_build";
    case cinder::RecordKind::kBoundarySettle: return "boundary_settle";
    default: return "?";
  }
}

double Mj(int64_t nj) { return static_cast<double>(nj) / 1e6; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace-file> [--timeline SHARD] [--taps] [--follow] [--poll-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The file argument is positional and never dash-prefixed: a leading-dash
  // first argument is a (possibly misspelled) flag, not a path.
  if (argc < 2 || argv[1][0] == '-') {
    return Usage(argv[0]);
  }
  const std::string path = argv[1];
  bool want_timeline = false;
  uint32_t timeline_shard = 0;
  bool want_taps = false;
  bool follow = false;
  uint32_t poll_ms = 200;
  using cinder::tools::ParseFlagU32;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
      want_timeline = true;
      if (!ParseFlagU32(argv[++i], 0, &timeline_shard)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--taps") == 0) {
      want_taps = true;
    } else if (std::strcmp(argv[i], "--follow") == 0) {
      follow = true;
    } else if (std::strcmp(argv[i], "--poll-ms") == 0 && i + 1 < argc) {
      if (!ParseFlagU32(argv[++i], 1, &poll_ms)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }

  if (follow) {
    // Tail the streaming file until its writer finalizes the header (or the
    // stream stops growing), reporting progress per flushed frame batch;
    // the full summary below then reads the settled file.
    uint64_t live_records = 0;
    uint64_t live_frames = 0;
    std::string error;
    const cinder::tools::FollowOptions opts{poll_ms, /*idle_timeout_ms=*/10'000,
                                            /*once=*/false};
    const auto result = cinder::tools::FollowTraceFile(
        path, opts,
        [&](const cinder::TraceRecord& r) {
          ++live_records;
          if (r.kind == static_cast<uint8_t>(cinder::RecordKind::kFrameMark)) {
            if (++live_frames % 64 == 0) {
              std::fprintf(stderr, "energytrace: following %s: %" PRIu64 " frames, %" PRIu64
                                   " records...\n",
                           path.c_str(), live_frames, live_records);
            }
          }
        },
        &error);
    if (result == cinder::tools::FollowResult::kError) {
      std::fprintf(stderr, "energytrace: %s\n", error.c_str());
      return 1;
    }
    if (result == cinder::tools::FollowResult::kIdleTimeout) {
      std::fprintf(stderr,
                   "energytrace: %s stopped growing without finalizing; summarizing the "
                   "truncated prefix\n",
                   path.c_str());
    }
  }

  cinder::TraceReader reader;
  std::string error;
  if (!cinder::TraceReader::LoadFile(path, &reader, &error)) {
    std::fprintf(stderr, "energytrace: %s\n", error.c_str());
    return 1;
  }

  const cinder::LiveAggregator& agg = reader.aggregate();
  std::printf("trace: %s\n", path.c_str());
  std::printf("  records %zu, frames %" PRIu64 ", writers %u, dropped %" PRIu64
              " (ring %" PRIu64 ", spill %" PRIu64 ")\n",
              reader.records().size(), agg.frames(), reader.writer_count(),
              reader.dropped(), reader.ring_dropped(), reader.spill_dropped());
  if (reader.truncated()) {
    std::printf("  TRUNCATED stream: the writer never finalized this file (or it was "
                "chopped); totals cover the parsed prefix only\n");
  } else if (reader.dropped() > 0) {
    std::printf("  (dropped records: totals below undercount the run)\n");
  }
  if (agg.corrupt_records() > 0) {
    std::printf("  CORRUPT records skipped: %" PRIu64 " (shard index >= %u)\n",
                agg.corrupt_records(), cinder::kMaxTraceShards);
  }
  if (reader.complete()) {
    std::printf("  complete stream: totals are bit-for-bit engine counters\n");
  }
  const auto& counts = reader.kind_counts();
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) {
      std::printf("  %-16s %" PRIu64 "\n", KindName(static_cast<uint8_t>(k)), counts[k]);
    }
  }

  std::printf("\nengine totals (from shard_batch records):\n");
  std::printf("  tap flow   %.3f mJ (%" PRId64 " nJ)\n", Mj(agg.TotalTapFlow()),
              agg.TotalTapFlow());
  std::printf("  decay flow %.3f mJ (%" PRId64 " nJ)\n", Mj(agg.TotalDecayFlow()),
              agg.TotalDecayFlow());
  if (agg.BoundarySettles() > 0) {
    std::printf("\nboundary settlement (articulation cuts):\n");
    std::printf("  %" PRIu64 " settles, %.3f mJ across cuts, %" PRIu64
                " lanes applied, %" PRIu64 " fused fallbacks\n",
                agg.BoundarySettles(), Mj(agg.BoundaryFlow()),
                agg.BoundaryLanesApplied(), agg.FusedSettles());
  }

  const auto shards = agg.FlowByShard();
  if (!shards.empty()) {
    std::printf("\nflow per work item (%zu rows):\n", shards.size());
    std::printf("  %6s %6s %6s %8s %7s %9s %12s %12s\n", "shard", "shards", "taps", "reserves",
                "ranges", "batches", "tap mJ", "decay mJ");
    for (const auto& s : shards) {
      std::printf("  %6u %6u %6u %8u %7u %9" PRIu64 " %12.3f %12.3f\n", s.shard, s.shards,
                  s.taps, s.decay_reserves, s.ranges, s.batches, Mj(s.tap_flow),
                  Mj(s.decay_flow));
    }
  }

  const auto loads = agg.WorkerLoads();
  if (!loads.empty()) {
    std::printf("\nworker load balance (slot 0 = calling thread):\n");
    std::printf("  %6s %10s %10s %10s %12s\n", "worker", "dispatches", "shards", "ranges",
                "busy ms");
    for (const auto& w : loads) {
      std::printf("  %6u %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %12.3f\n", w.worker,
                  w.dispatches, w.shard_runs, w.range_runs,
                  static_cast<double>(w.busy_ns) / 1e6);
    }
  }

  const auto charges = agg.CpuChargeByThread();
  if (!charges.empty() || agg.SchedPicks() > 0) {
    std::printf("\nscheduler: %" PRIu64 " picks (%" PRIu64 " idle)\n", agg.SchedPicks(),
                agg.SchedIdlePicks());
    for (const auto& c : charges) {
      std::printf("  thread %-10u %8" PRIu64 " quanta  %10.3f mJ billed\n", c.thread,
                  c.quanta, Mj(c.billed));
    }
  }

  if (want_timeline) {
    const auto points = reader.ShardTimeline(timeline_shard);
    std::printf("\nshard %u timeline, per covering work item (%zu batches):\n", timeline_shard,
                points.size());
    std::printf("  %9s %12s %12s %12s %14s %14s\n", "frame", "time ms", "tap mJ", "decay mJ",
                "cum tap mJ", "cum decay mJ");
    for (const auto& p : points) {
      std::printf("  %9" PRIu64 " %12.3f %12.3f %12.3f %14.3f %14.3f\n", p.frame,
                  static_cast<double>(p.time_us) / 1e3, Mj(p.tap_flow), Mj(p.decay_flow),
                  Mj(p.cumulative_tap_flow), Mj(p.cumulative_decay_flow));
    }
  }

  if (want_taps) {
    const auto taps = reader.TapFlows();
    if (taps.empty()) {
      std::printf("\nper-tap flows: none (enable kTapTransfer/kPlanTap in the record mask)\n");
    } else {
      std::printf("\nper-tap flows (%zu taps):\n", taps.size());
      std::printf("  %10s %10s %10s %10s %12s\n", "tap", "src", "dst", "transfers", "flow mJ");
      for (const auto& t : taps) {
        std::printf("  %10" PRIu64 " %10u %10u %10" PRIu64 " %12.3f\n", t.tap_id, t.src_id,
                    t.dst_id, t.transfers, Mj(t.flow));
      }
    }
  }

  return 0;
}
