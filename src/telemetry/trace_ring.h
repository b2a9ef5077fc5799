// Single-writer ring buffer of fixed-size trace records.
//
// The hot-path half of the telemetry layer: Append is a store, an index
// mask, and a counter bump — no locks, no atomics, no allocation. Safety
// comes from the engine's execution structure, not from synchronization:
//
//   - Exactly one thread writes a given ring during a batch (worker slot i
//     owns ring i; the caller/main thread is slot 0).
//   - The main thread drains rings only between batches, inside
//     TraceDomain::FlushFrame — after ShardExecutor::RunTickets has
//     returned, whose mutex/cv handshake is the happens-before edge that
//     publishes the workers' appends. TSAN agrees (the Telemetry suites run under it).
//
// When a ring fills before the next flush the oldest records are overwritten
// (newest data wins — matching addb2's stance that telemetry must never
// block or abort the instrumented path) and `dropped()` counts the loss.
#pragma once

#include <cstdint>
#include <vector>

#include "src/telemetry/trace_record.h"

namespace cinder {

class TraceRing {
 public:
  // `capacity_records` is rounded up to a power of two (min 16) so the
  // wraparound is a mask, not a modulo.
  explicit TraceRing(uint32_t capacity_records) {
    uint32_t cap = 16;
    while (cap < capacity_records) {
      cap <<= 1;
    }
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  uint32_t capacity() const { return static_cast<uint32_t>(buf_.size()); }

  // Grows the capacity to at least `capacity_records` (a power of two),
  // keeping the pending records in FIFO order; never shrinks. Cold path:
  // only between batches, from the thread that drains the ring.
  void Grow(uint32_t capacity_records) {
    uint32_t cap = capacity();
    while (cap < capacity_records) {
      cap <<= 1;
    }
    if (cap == capacity()) {
      return;
    }
    std::vector<TraceRecord> bigger(cap);
    for (uint32_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & mask_];
    }
    buf_.swap(bigger);
    mask_ = cap - 1;
    head_ = 0;
  }
  uint32_t size() const { return size_; }
  // Records overwritten before a flush could drain them.
  uint64_t dropped() const { return dropped_; }

  void Append(const TraceRecord& r) {
    buf_[(head_ + size_) & mask_] = r;
    if (size_ == buf_.size()) {
      head_ = (head_ + 1) & mask_;  // Full: the write just ate the oldest.
      ++dropped_;
    } else {
      ++size_;
    }
  }

  void Emit(int64_t time_us, RecordKind kind, uint32_t actor, uint16_t aux, uint8_t flags,
            int64_t v0, int64_t v1) {
    TraceRecord r;
    r.time_us = time_us;
    r.v0 = v0;
    r.v1 = v1;
    r.actor = actor;
    r.kind = static_cast<uint8_t>(kind);
    r.flags = flags;
    r.aux = aux;
    Append(r);
  }

  // Pops every record in FIFO order into `fn(const TraceRecord&)`.
  template <typename Fn>
  void Drain(Fn&& fn) {
    const uint32_t n = size_;
    for (uint32_t i = 0; i < n; ++i) {
      fn(buf_[(head_ + i) & mask_]);
    }
    head_ = (head_ + n) & mask_;
    size_ = 0;
  }

 private:
  std::vector<TraceRecord> buf_;
  uint32_t mask_ = 0;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace cinder
