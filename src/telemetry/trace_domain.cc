#include "src/telemetry/trace_domain.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace cinder {

namespace {
size_t RecordsForBytes(uint64_t bytes, size_t min_records) {
  size_t cap = min_records;
  while (cap * sizeof(TraceRecord) < bytes) {
    cap <<= 1;
  }
  return cap;
}
}  // namespace

TraceDomain::~TraceDomain() {
  if (cfg_.enabled && !sinks_.empty()) {
    // Flush the tail only if a ring holds undrained records; an
    // already-flushed domain must not append an empty trailing frame (that
    // would break the streamed-file == WriteFile byte identity).
    for (const auto& ring : rings_) {
      if (ring->size() > 0) {
        FlushFrame();
        break;
      }
    }
  }
  DetachSinks();
}

TraceSink::~TraceSink() {
  if (domain_ != nullptr) {
    domain_->UnlinkSink(this);
  }
}

void TraceDomain::AddSink(TraceSink* sink) {
  if (!cfg_.enabled || sink == nullptr || sink->domain_ == this) {
    return;
  }
  if (sink->domain_ != nullptr) {
    sink->domain_->RemoveSink(sink);
  }
  sinks_.push_back(sink);
  sink->domain_ = this;
  sink->OnAttach(*this);
}

void TraceDomain::RemoveSink(TraceSink* sink) {
  if (sink == nullptr || sink->domain_ != this) {
    return;
  }
  UnlinkSink(sink);
  sink->OnDetach(*this);
}

void TraceDomain::UnlinkSink(TraceSink* sink) {
  sinks_.erase(std::find(sinks_.begin(), sinks_.end(), sink));
  sink->domain_ = nullptr;
}

void TraceDomain::DetachSinks() {
  // Swap out first so a sink's OnDetach never observes itself still listed.
  std::vector<TraceSink*> detached;
  detached.swap(sinks_);
  for (TraceSink* s : detached) {
    s->domain_ = nullptr;
    s->OnDetach(*this);
  }
}

void TraceDomain::Configure(const TelemetryConfig& cfg) {
  DetachSinks();
  cfg_ = cfg;
  rings_.clear();
  spill_.clear();
  spill_head_ = 0;
  spill_size_ = 0;
  spill_dropped_ = 0;
  next_frame_ = 0;
  spill_mask_ = 0;
  if (!cfg_.enabled) {
    return;
  }
  // The spill itself is allocated lazily, on the first retained record: a
  // domain whose frames all stream to sinks keeps no spill at all, which is
  // what makes streaming-mode telemetry memory O(rings) for any run length.
  EnsureWriters(1);
}

void TraceDomain::EnsureWriters(uint32_t n) {
  if (!cfg_.enabled) {
    return;
  }
  const uint32_t ring_records =
      static_cast<uint32_t>(RecordsForBytes(cfg_.ring_bytes, 16));
  while (rings_.size() < n) {
    rings_.push_back(std::make_unique<TraceRing>(ring_records));
  }
}

void TraceDomain::GrowSpill() {
  // Linearize into a buffer twice the size; cold (full-history mode only).
  std::vector<TraceRecord> bigger(spill_.size() * 2);
  for (size_t i = 0; i < spill_size_; ++i) {
    bigger[i] = spill_[(spill_head_ + i) & spill_mask_];
  }
  spill_.swap(bigger);
  spill_mask_ = spill_.size() - 1;
  spill_head_ = 0;
}

void TraceDomain::AppendSpill(const TraceRecord& r) {
  if (spill_size_ == spill_.size()) {
    if (spill_.empty()) {
      // First retained record: allocate the configured capacity now (see
      // Configure — streaming-only domains never reach here).
      const size_t cap = RecordsForBytes(cfg_.spill_bytes, 64);
      spill_.resize(cap);
      spill_mask_ = cap - 1;
    } else if (cfg_.spill_grow) {
      GrowSpill();
    } else {
      spill_head_ = (spill_head_ + 1) & spill_mask_;
      --spill_size_;
      ++spill_dropped_;
    }
  }
  spill_[(spill_head_ + spill_size_) & spill_mask_] = r;
  ++spill_size_;
}

void TraceDomain::Deliver(const TraceRecord& r) {
  if (!sinks_.empty()) {
    for (TraceSink* s : sinks_) {
      s->OnRecord(r);
    }
    if (!cfg_.retain_with_sinks) {
      return;
    }
  }
  AppendSpill(r);
}

void TraceDomain::EmitSpill(RecordKind kind, uint32_t actor, uint16_t aux, uint8_t flags,
                            int64_t v0, int64_t v1) {
  if (!cfg_.enabled || !on(kind)) {
    return;
  }
  TraceRecord r;
  r.time_us = time_us_;
  r.v0 = v0;
  r.v1 = v1;
  r.actor = actor;
  r.kind = static_cast<uint8_t>(kind);
  r.flags = flags;
  r.aux = aux;
  Deliver(r);
}

uint64_t TraceDomain::FlushFrame() {
  if (!cfg_.enabled) {
    return 0;
  }
  for (auto& ring : rings_) {
    ring->Drain([this](const TraceRecord& r) { Deliver(r); });
  }
  const uint64_t seq = next_frame_++;
  TraceRecord mark;
  mark.time_us = time_us_;
  mark.v0 = static_cast<int64_t>(seq);
  mark.v1 = static_cast<int64_t>(ring_dropped());
  mark.kind = static_cast<uint8_t>(RecordKind::kFrameMark);
  mark.aux = static_cast<uint16_t>(rings_.size());
  Deliver(mark);
  for (TraceSink* s : sinks_) {
    s->OnFrame(seq, *this);
  }
  return seq;
}

uint64_t TraceDomain::ring_dropped() const {
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    dropped += ring->dropped();
  }
  return dropped;
}

uint64_t TraceDomain::dropped_records() const { return spill_dropped_ + ring_dropped(); }

bool TraceDomain::WriteFile(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  TraceFileHeader h{};
  std::memcpy(h.magic, kTraceFileMagic, sizeof(h.magic));
  h.record_size = sizeof(TraceRecord);
  h.writer_count = static_cast<uint32_t>(rings_.size());
  h.record_count = spill_size_;
  h.dropped_records = dropped_records();
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  // The spill is a ring; write its two contiguous chunks in FIFO order.
  for (size_t i = 0; ok && i < spill_size_;) {
    const size_t at = (spill_head_ + i) & spill_mask_;
    const size_t run = std::min(spill_size_ - i, spill_.size() - at);
    ok = std::fwrite(spill_.data() + at, sizeof(TraceRecord), run, f) == run;
    i += run;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) {
    *error = "short write to " + path;
  }
  return ok;
}

}  // namespace cinder
