#include "src/telemetry/trace_reader.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "src/telemetry/trace_domain.h"

namespace cinder {

namespace {
constexpr size_t kNumKinds = static_cast<size_t>(RecordKind::kKindCount);

bool IsKind(const TraceRecord& r, RecordKind k) {
  return r.kind == static_cast<uint8_t>(k);
}
}  // namespace

void TraceReader::Fold() {
  kind_counts_.assign(kNumKinds, 0);
  agg_ = std::make_unique<LiveAggregator>();
  for (const TraceRecord& r : records_) {
    if (r.kind < kNumKinds && !IsCorruptShardRecord(r)) {
      ++kind_counts_[r.kind];
    }
    agg_->OnRecord(r);
  }
}

TraceReader TraceReader::FromDomain(const TraceDomain& domain) {
  TraceReader reader;
  reader.records_.reserve(domain.spill_size());
  domain.ForEachSpilled([&reader](const TraceRecord& r) { reader.records_.push_back(r); });
  reader.dropped_ = domain.dropped_records();
  reader.ring_dropped_ = domain.ring_dropped();  // Exact, unlike the marks' stamp.
  reader.writer_count_ = domain.writers();
  reader.Fold();
  return reader;
}

bool TraceReader::LoadFile(const std::string& path, TraceReader* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  TraceFileExtent extent;
  if (!ProbeTraceFile(f, path, &extent, error)) {
    std::fclose(f);
    return false;
  }
  // Every whole record on disk is loaded; a count mismatch or a chopped
  // tail marks the reader truncated instead of failing.
  const uint64_t on_disk = extent.records;
  out->records_.resize(on_disk);
  const bool ok =
      on_disk == 0 ||
      std::fread(out->records_.data(), sizeof(TraceRecord), on_disk, f) == on_disk;
  std::fclose(f);
  if (!ok) {
    if (error != nullptr) {
      *error = path + ": short read of record stream";
    }
    return false;
  }
  out->truncated_ = extent.partial_tail || extent.header.record_count != on_disk;
  out->writer_count_ = extent.header.writer_count;
  out->Fold();
  // An unfinalized header may undercount drops; the marks' cumulative ring
  // stamp is a floor (keeps ring + spill == dropped()).
  out->ring_dropped_ = out->agg_->ring_dropped();
  out->dropped_ = std::max(extent.header.dropped_records, out->ring_dropped_);
  return true;
}

std::vector<TraceReader::TimelinePoint> TraceReader::ShardTimeline(uint32_t shard) const {
  std::vector<TimelinePoint> out;
  // Records precede the frame mark that closes their frame, so batch points
  // stay "pending" until the next mark supplies the sequence number.
  size_t pending_from = 0;
  int64_t cum_tap = 0;
  int64_t cum_decay = 0;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kFrameMark)) {
      for (size_t i = pending_from; i < out.size(); ++i) {
        out[i].frame = static_cast<uint64_t>(r.v0);
      }
      pending_from = out.size();
      continue;
    }
    // The record of the work item whose span covers `shard`.
    if (!IsKind(r, RecordKind::kShardBatch) || r.actor > shard ||
        shard - r.actor >= BatchShards(r) || IsCorruptShardRecord(r)) {
      continue;
    }
    cum_tap = WrapAdd(cum_tap, r.v0);
    cum_decay = WrapAdd(cum_decay, r.v1);
    TimelinePoint p;
    p.frame = agg_->frames();  // Placeholder for an unterminated tail frame.
    p.time_us = r.time_us;
    p.tap_flow = r.v0;
    p.decay_flow = r.v1;
    p.cumulative_tap_flow = cum_tap;
    p.cumulative_decay_flow = cum_decay;
    out.push_back(p);
  }
  return out;
}

std::vector<TraceReader::TapFlow> TraceReader::TapFlows() const {
  // Plan tables appear in the stream before the batches that use them
  // (rebuild-time spill records), so a single forward walk keeps the
  // entry -> tap mapping current across rebuilds.
  struct PlanEntry {
    uint64_t tap_id;
    uint32_t src_id;
    uint32_t dst_id;
  };
  std::unordered_map<uint32_t, PlanEntry> plan;
  std::map<uint64_t, TapFlow> by_tap;
  for (const TraceRecord& r : records_) {
    if (IsKind(r, RecordKind::kPlanTap)) {
      PlanEntry e;
      e.tap_id = static_cast<uint64_t>(r.v0);
      e.src_id = static_cast<uint32_t>(static_cast<uint64_t>(r.v1) >> 32);
      e.dst_id = static_cast<uint32_t>(static_cast<uint64_t>(r.v1) & 0xffffffffu);
      plan[r.actor] = e;
      TapFlow& t = by_tap[e.tap_id];
      t.tap_id = e.tap_id;
      t.src_id = e.src_id;
      t.dst_id = e.dst_id;
    } else if (IsKind(r, RecordKind::kTapTransfer)) {
      auto it = plan.find(r.actor);
      if (it == plan.end()) {
        continue;  // Transfer without a retained plan table (e.g. dropped).
      }
      TapFlow& t = by_tap[it->second.tap_id];
      ++t.transfers;
      t.flow = WrapAdd(t.flow, r.v0);
    }
  }
  std::vector<TapFlow> out;
  out.reserve(by_tap.size());
  for (const auto& [id, t] : by_tap) {
    out.push_back(t);
  }
  return out;
}

}  // namespace cinder
