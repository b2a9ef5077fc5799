// TraceSink — the streaming consumer interface of the telemetry layer.
//
// PR 7's TraceDomain retained every drained frame in an in-memory spill and
// serialized it after the run (WriteFile). A sink inverts that: FlushFrame
// hands each drained record to every attached sink *instead of* retaining
// it, so a consumer sees the stream incrementally while the run executes and
// the domain's memory stays O(rings) no matter how long the run is. The two
// shipped sinks are FileStreamSink (incremental CNDTRC01 writer — a complete
// streamed run is byte-identical to a post-hoc WriteFile of a full-history
// spill) and LiveAggregator (fixed-cost windowed aggregation feeding the
// health monitors and the energytop view).
//
// Threading contract: every callback runs on the flush thread (the main
// thread, at batch boundaries, past the executor's happens-before edge —
// the same place FlushFrame always ran). Sinks therefore need no internal
// synchronization, but they execute on the flush path: per-record work must
// stay O(1) and allocation-free in steady state or the telemetry overhead
// gate (docs/TELEMETRY.md, "Overhead") will catch the regression.
#pragma once

#include <cstdint>

#include "src/telemetry/trace_record.h"

namespace cinder {

class TraceDomain;

class TraceSink {
 public:
  TraceSink() = default;
  // The domain holds the sink's address, so a sink is never copied or moved.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  // Either side may die first. A sink destroyed while still attached
  // unlinks itself from its domain without any callback (a derived sink's
  // own destructor has already run by then — FileStreamSink finalizes its
  // file there); a domain destroyed first detaches its sinks (OnDetach).
  virtual ~TraceSink();

  // The sink was attached to an enabled domain (TraceDomain::AddSink). A
  // sink attached mid-run starts a fresh epoch at the current frame: it sees
  // no earlier records, and the first kFrameMark it receives carries the
  // domain's current (not zero) sequence number.
  virtual void OnAttach(const TraceDomain& domain) {}

  // One record, in stream order: within a frame, ring slot order, with the
  // frame's kFrameMark last — exactly the order AppendSpill retained them in
  // PR 7, which is what makes streamed files byte-identical to WriteFile.
  virtual void OnRecord(const TraceRecord& r) = 0;

  // The frame `seq` is complete (its kFrameMark was already delivered via
  // OnRecord). Cold per-batch hook: fsync policy, window bookkeeping.
  virtual void OnFrame(uint64_t seq, const TraceDomain& domain) {}

  // Final callback: RemoveSink, a reconfigure, the sink's attachment to
  // another domain, or the domain's destruction (which flushes any pending
  // ring records first, so nothing is silently lost). Not called when the
  // sink itself is destroyed while attached: a sink that must see the
  // domain's last frame outlives it — the Simulator declares its stream sink
  // before the domain for exactly this.
  virtual void OnDetach(const TraceDomain& domain) {}

 private:
  friend class TraceDomain;
  // The domain this sink is attached to, or null. Set and cleared by the
  // domain on the flush thread.
  TraceDomain* domain_ = nullptr;
};

}  // namespace cinder
