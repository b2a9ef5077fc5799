// TraceReader — loads a telemetry stream and folds it through LiveAggregator.
//
// Reads either a live TraceDomain's retained spill or a trace file written
// by TraceDomain::WriteFile or a FileStreamSink, keeps the records and the
// stream's metadata (loss accounting, truncation, writer count, per-kind
// histogram), and feeds every record in stream order to one LiveAggregator
// it owns. Every flow, load and billing query (totals, FlowByShard,
// WorkerLoads, CpuChargeByThread, scheduler and boundary counts) is asked of
// aggregate(), so an offline answer is the live answer by construction. The
// reader itself answers only what needs the retained records: per-shard
// timelines (per work item) and per-tap flows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_record.h"

namespace cinder {

class TraceDomain;

class TraceReader {
 public:
  // Snapshots the domain's retained spill (flush pending rings first if the
  // tail of the run matters — Simulator and the examples do).
  static TraceReader FromDomain(const TraceDomain& domain);
  // Loads a WriteFile dump or a FileStreamSink stream. Returns false (with a
  // message) only on a missing/unreadable file, bad magic, or a record-size
  // mismatch. A file whose on-disk records disagree with its header count —
  // a run killed mid-stream (unfinalized placeholder header), or a file
  // chopped mid-record — parses best-effort: every whole record on disk is
  // loaded and truncated() turns true, so consumers can analyze the prefix
  // while knowing the stream is provably incomplete.
  static bool LoadFile(const std::string& path, TraceReader* out, std::string* error = nullptr);

  // The fold over records(), in stream order: every flow, load and billing
  // query. Its windows use the default LiveAggregatorConfig.
  const LiveAggregator& aggregate() const { return *agg_; }

  const std::vector<TraceRecord>& records() const { return records_; }
  uint64_t dropped() const { return dropped_; }
  // The drop split: ring overwrites (lost before a flush drained them)
  // vs spill drop-oldest evictions. Exact from a domain; from a file the
  // ring share is recovered from the frame marks' cumulative v1 stamp
  // (files older than the stamp report every drop as spill). ring + spill
  // == dropped().
  uint64_t ring_dropped() const { return ring_dropped_; }
  uint64_t spill_dropped() const { return dropped_ - ring_dropped_; }
  // True when LoadFile detected an incomplete stream (see LoadFile).
  bool truncated() const { return truncated_; }
  // A provably complete stream: nothing dropped, truncated or corrupt — the
  // precondition for bit-for-bit cross-checks against engine counters.
  bool complete() const {
    return !truncated_ && dropped_ == 0 && agg_->corrupt_records() == 0;
  }
  uint32_t writer_count() const { return writer_count_; }
  // Per-kind record counts, indexed by RecordKind; corrupt records
  // (IsCorruptShardRecord) are not counted.
  const std::vector<uint64_t>& kind_counts() const { return kind_counts_; }

  // Per-batch flow timeline of the work item that covers `shard`: one point
  // per kShardBatch record whose span contains it (a fleet phone is one
  // shard, packed with its neighbours into a work unit, so this is its
  // unit's energy timeline). `frame` is the flush sequence number of the
  // batch; cumulative_* are running sums, so the last point is the covering
  // rows' total.
  struct TimelinePoint {
    uint64_t frame = 0;
    int64_t time_us = 0;
    int64_t tap_flow = 0;
    int64_t decay_flow = 0;
    int64_t cumulative_tap_flow = 0;
    int64_t cumulative_decay_flow = 0;
  };
  std::vector<TimelinePoint> ShardTimeline(uint32_t shard) const;

  // -- Fine-grained tap attribution (kTapTransfer + kPlanTap opt-in) ---------------
  struct TapFlow {
    uint64_t tap_id = 0;
    uint32_t src_id = 0;  // Low 32 bits (kPlanTap packing).
    uint32_t dst_id = 0;
    uint64_t transfers = 0;
    int64_t flow = 0;
  };
  // One entry per tap id seen in the plan tables, ascending id, with flows
  // joined from kTapTransfer records via the plan-entry index. Empty unless
  // the fine-grained kinds were enabled.
  std::vector<TapFlow> TapFlows() const;

 private:
  void Fold();  // Fills the histogram and the aggregate from records_.

  std::vector<TraceRecord> records_;
  std::vector<uint64_t> kind_counts_;
  std::unique_ptr<LiveAggregator> agg_ = std::make_unique<LiveAggregator>();
  uint64_t dropped_ = 0;
  uint64_t ring_dropped_ = 0;
  bool truncated_ = false;
  uint32_t writer_count_ = 0;
};

}  // namespace cinder
