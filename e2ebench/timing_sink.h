// TimingSink — the traced run's outside-in frame splitter.
//
// Wraps the workload's LiveAggregator as the domain's only sink and forwards
// every callback to it unchanged. On the way it stamps two instants per
// frame with steady_clock:
//   * first_ns:   the first record FlushFrame delivers (ring drain start);
//   * onframe_ns: the return of the wrapped sink's OnFrame.
// Together with the benchmark's own stamps around RunUntil these split a
// frame into head (RunUntil entry -> first record: timed callbacks and the
// tap batch up to its FlushFrame), flush (ring drain + sinks) and quanta
// (OnFrame return -> RunUntil return: scheduler, thread bodies, meter and
// devices), which sum to the frame's wall time by construction.
//
// Plan-table records (kPlanShard and the opt-in kPlanTap/kPlanReserve) are
// written straight to the sinks during a plan rebuild, before the batch
// runs, so they never start the flush span; instead they mark the frame as
// a rebuild frame. The sink also counts, per frame, the record mix the
// per-layer metrics need (dispatches, worker busy time, boundary
// settlements), all from delivered records only.
#pragma once

#include <chrono>
#include <cstdint>

#include "src/telemetry/trace_record.h"
#include "src/telemetry/trace_sink.h"

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TimingSink final : public cinder::TraceSink {
 public:
  static constexpr uint32_t kMaxWorkers = 64;

  // Per-frame observations; reset by BeginFrame.
  struct Frame {
    int64_t first_ns = 0;    // 0 = no flushed record this frame.
    int64_t onframe_ns = 0;  // 0 = no OnFrame this frame.
    bool rebuild = false;    // Plan tables were dumped (a plan rebuild).
    uint64_t records = 0;    // Delivered records, plan tables and marks included.
    uint64_t dispatches = 0;
    uint64_t settles = 0;        // kBoundarySettle records.
    uint64_t fused_settles = 0;  // ... with the fused-fallback flag.
    int64_t busy_ns = 0;         // Sum of shard/range timing records.
  };

  explicit TimingSink(cinder::TraceSink* inner) : inner_(inner) {}

  // With stamping off the sink only forwards: the traced run's untraced
  // legs, which give trace.overhead_frac its base on the same rig.
  void set_stamping(bool on) { stamping_ = on; }
  bool stamping() const { return stamping_; }

  void BeginFrame() { frame_ = Frame{}; }
  const Frame& frame() const { return frame_; }
  // Cumulative busy ns per worker slot over every delivered timing record.
  const int64_t* worker_busy_ns() const { return worker_busy_ns_; }

  void OnAttach(const cinder::TraceDomain& d) override { inner_->OnAttach(d); }
  void OnDetach(const cinder::TraceDomain& d) override { inner_->OnDetach(d); }

  void OnRecord(const cinder::TraceRecord& r) override {
    using cinder::RecordKind;
    if (!stamping_) {
      inner_->OnRecord(r);
      return;
    }
    const auto kind = static_cast<RecordKind>(r.kind);
    if (kind == RecordKind::kPlanShard || kind == RecordKind::kPlanTap ||
        kind == RecordKind::kPlanReserve) {
      frame_.rebuild = true;
    } else if (frame_.first_ns == 0) {
      frame_.first_ns = NowNs();
    }
    ++frame_.records;
    switch (kind) {
      case RecordKind::kShardTiming:
        AddBusy(r.aux, r.v0);
        break;
      case RecordKind::kRangeTiming:
        AddBusy(static_cast<uint32_t>(r.aux) >> 8, r.v0);
        break;
      case RecordKind::kDispatch:
        ++frame_.dispatches;
        break;
      case RecordKind::kBoundarySettle:
        ++frame_.settles;
        frame_.fused_settles += (r.flags & cinder::kBoundarySettleFused) != 0 ? 1 : 0;
        break;
      default:
        break;
    }
    inner_->OnRecord(r);
  }

  void OnFrame(uint64_t seq, const cinder::TraceDomain& d) override {
    inner_->OnFrame(seq, d);
    if (stamping_) {
      frame_.onframe_ns = NowNs();
    }
  }

 private:
  void AddBusy(uint32_t worker, int64_t ns) {
    frame_.busy_ns += ns;
    if (worker < kMaxWorkers) {
      worker_busy_ns_[worker] += ns;
    }
  }

  cinder::TraceSink* inner_;
  bool stamping_ = true;
  Frame frame_;
  int64_t worker_busy_ns_[kMaxWorkers] = {};
};

}  // namespace e2e
