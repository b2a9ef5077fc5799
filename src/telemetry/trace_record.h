// Fixed-size binary trace records — the unit of the always-on telemetry
// layer (docs/TELEMETRY.md).
//
// Every event the engine can report is one 32-byte POD appended to a
// per-worker TraceRing: no strings, no varints, no allocation, so the hot
// paths (tap passes, decay, scheduler picks) pay a couple of stores per
// event. The engine writes its batch flow once per work item, not once per
// shard, so a fleet batch costs a few hundred records however many phones it
// runs; exact per-shard flow stays in the engine (TapEngine::shard_stats).
// Energy timelines per work item, tap flow attribution, and shard load
// balance are all expressible in (kind, actor, aux, flags, v0, v1) — the
// interpretation per kind is the table below, and the on-disk format is the
// raw records behind a small header (TraceReader reads both live domains
// and files).
#pragma once

#include <cstdint>

namespace cinder {

// One bit per kind in TelemetryConfig::record_mask (RecordBit). Kinds past
// the default mask (per-tap transfers, per-reserve decay, plan tap/reserve
// tables) are fine-grained: they scale with taps-per-batch rather than
// work-items-per-batch, so they are opt-in to keep the default overhead < 2% on
// BM_TapBatch/32768.
enum class RecordKind : uint8_t {
  // Frame boundary, written by TraceDomain::FlushFrame after the rings
  // drain: v0 = frame sequence number, time_us = the domain clock at flush,
  // aux = number of writer rings drained, v1 = cumulative ring-overwrite
  // drops at flush time (so stream consumers can bound per-frame loss
  // without the domain; pre-PR-8 files carry 0 here). Records since the
  // previous mark belong to the frame this mark closes (one tap batch, in
  // the engine's wiring).
  kFrameMark = 0,
  // Per work item per batch: actor = first shard index, aux = shards the
  // record covers (its span), v0 = their summed tap flow (nJ), v1 = their
  // summed decay flow (nJ). A work unit's record covers its contiguous
  // shards; a split shard and each cut member get one record of span 1.
  // Files written before per-item records carry aux 0, which means 1 (see
  // BatchShards). The sum over all records equals the engine's
  // total_tap_flow()/total_decay_flow() bit-for-bit.
  kShardBatch = 1,
  // Per work item per batch: actor = first shard index, v0 = wall
  // nanoseconds the item took, aux = worker slot that ran it, v1 = shards it
  // covered (a work unit runs several whole shards; a cut member's pass 2
  // covers 1; files written before work units carry 0, which means 1 — see
  // TimedShards).
  kShardTiming = 2,
  // Per range pass of a split shard: actor = shard index,
  // aux = (worker slot << 8) | range index, flags = pass (1 or 2),
  // v0 = wall nanoseconds.
  kRangeTiming = 3,
  // Fine-grained, off by default. One per tap transfer that moved > 0:
  // actor = plan entry index (join against kPlanTap for ids),
  // v0 = moved (nJ), aux = shard index (low 16 bits).
  kTapTransfer = 4,
  // Reserve deposit/withdraw through the syscall layer, plus the engine's
  // decay-leak deposits: actor = low 32 bits of the reserve id, v0 = amount
  // (nJ), v1 = level after. flags: kReserveOpConsume for ReserveConsume,
  // kReserveOpDecayLeak for the merge's battery-root deposits (one per work
  // item that leaked into the battery). kReserveOpUnitLeak is one record per
  // work item for the leakage its shards deposited into their own sinks
  // (DecayConfig::to_shard_root): actor = the item's first shard, v0 = the
  // summed nJ deposited, v1 = the number of sink deposits.
  kReserveDeposit = 5,
  kReserveWithdraw = 6,
  // Fine-grained, off by default. One per reserve the decay pass drained:
  // actor = reserve bank slot (join against kPlanReserve), v0 = taken (nJ).
  kReserveDecay = 7,
  // Scheduler pick: actor = low 32 bits of the chosen thread id (0 when
  // nothing could run), time_us = the sim time passed to PickNext.
  // flags = kSchedPickPlanned when the quantum was replayed from a K-quanta
  // run plan instead of a full PickNext scan (same decision either way —
  // the flag only attributes the quantum for the plan-hit ratio).
  kSchedPick = 8,
  // CPU billing: actor = low 32 bits of the thread id, v0 = billed (nJ).
  kCpuCharge = 9,
  // Executor dispatch: one per claimed ticket (work unit, range or cut
  // member). actor = (first) shard index, aux = (worker slot << 8) | range
  // index, flags = ShardTicketKind.
  kDispatch = 10,
  // Fine-grained, off by default. Plan table dumped at each rebuild so
  // offline readers can map plan entries back to kernel objects:
  // actor = plan entry index, v0 = tap id,
  // v1 = (src id & 0xffffffff) << 32 | (dst id & 0xffffffff).
  kPlanTap = 11,
  // Per shard at each rebuild: actor = shard index, v0 = plan entries
  // (taps), v1 = decay-wired reserves, aux = non-empty ranges (1 = unsplit).
  kPlanShard = 12,
  // Fine-grained, off by default. Reserve table at each rebuild:
  // actor = reserve bank slot, v0 = reserve id, aux = shard (low 16 bits).
  kPlanReserve = 13,
  // One per scheduler run-plan build: v0 = quanta planned, v1 = quanta
  // requested (the horizon cap the simulator asked for), flags = the
  // SchedPlanEnd reason the plan stopped early (or ran the full horizon).
  // Volume is O(builds), so it stays in the default mask.
  kSchedPlanBuild = 14,
  // One per cut parent component per batch (sharded mode with articulation
  // cuts), written by the parent's ticket after its members' pass 2:
  // actor = parent component index, v0 = boundary nJ settled, v1 = boundary
  // taps settled (lanes applied),
  // aux = member sub-shards, flags = kBoundarySettleFused when the parent
  // fell back to the fused serial pass-2 (a cut destination's demand group
  // was constrained, so deferral was not provably invisible). Volume is
  // O(cut parents) per batch, so it stays in the default mask.
  kBoundarySettle = 15,
  kKindCount = 16,
};

// flags values for kReserveDeposit / kReserveWithdraw.
inline constexpr uint8_t kReserveOpTransfer = 0;
inline constexpr uint8_t kReserveOpConsume = 1;
inline constexpr uint8_t kReserveOpDecayLeak = 2;
inline constexpr uint8_t kReserveOpUnitLeak = 3;

// flags value for kSchedPick: the quantum was replayed from a run plan.
inline constexpr uint8_t kSchedPickPlanned = 1;

// flags value for kBoundarySettle: the parent ran the fused serial fallback
// instead of lane settlement this batch.
inline constexpr uint8_t kBoundarySettleFused = 1;

// flags values for kSchedPlanBuild: why the plan ended where it did.
inline constexpr uint8_t kSchedPlanEndHorizon = 0;   // Ran the requested K.
inline constexpr uint8_t kSchedPlanEndSleeper = 1;   // A sleeper deadline.
inline constexpr uint8_t kSchedPlanEndUncertain = 2; // A reserve could cross
                                                     // empty within the
                                                     // billing margin.

constexpr uint32_t RecordBit(RecordKind k) { return uint32_t{1} << static_cast<uint8_t>(k); }

constexpr uint32_t kAllRecordsMask = (uint32_t{1} << static_cast<uint8_t>(RecordKind::kKindCount)) - 1;

// Everything whose volume is O(work items + quanta) per batch (the plan
// tables are O(shards), once per rebuild). The per-tap / per-reserve kinds
// multiply record volume by the plan size and are opt-in.
constexpr uint32_t kDefaultRecordMask =
    kAllRecordsMask & ~(RecordBit(RecordKind::kTapTransfer) | RecordBit(RecordKind::kReserveDecay) |
                        RecordBit(RecordKind::kPlanTap) | RecordBit(RecordKind::kPlanReserve));

// Object ids are sequential from 1 and never reused; the low 32 bits are
// unique for the first ~4 billion objects of a run, which is what `actor`
// stores for id-keyed kinds. (A run that creates more objects than that
// should use the plan tables, which carry full ids in v0.)
struct TraceRecord {
  int64_t time_us = 0;  // Domain clock (sim time) when the record was written.
  int64_t v0 = 0;
  int64_t v1 = 0;
  uint32_t actor = 0;
  uint8_t kind = 0;  // RecordKind.
  uint8_t flags = 0;
  uint16_t aux = 0;
};
static_assert(sizeof(TraceRecord) == 32, "records are fixed 32-byte binary");

// The shards one kShardBatch record covers: aux, where 0 (a trace written
// before per-item records, when every record covered one shard) counts as 1.
inline uint32_t BatchShards(const TraceRecord& r) { return r.aux > 0 ? r.aux : 1u; }

// Readers keep per-shard state in tables indexed by a record's shard (the
// actor of kShardBatch / kPlanShard). A record that names a shard at or past
// this bound — ten times the largest fleet the examples advertise — directly
// or through a kShardBatch span, is corrupt: readers count and skip it, so a
// flipped bit in a trace file can never size an allocation.
inline constexpr uint32_t kMaxTraceShards = 1u << 20;
inline bool IsCorruptShardRecord(const TraceRecord& r) {
  if (r.kind == static_cast<uint8_t>(RecordKind::kShardBatch)) {
    return uint64_t{r.actor} + BatchShards(r) > kMaxTraceShards;
  }
  return r.kind == static_cast<uint8_t>(RecordKind::kPlanShard) && r.actor >= kMaxTraceShards;
}

// Adds a record value to a running signed sum, wrapping (two's complement)
// where plain int64 addition would overflow. No valid stream comes near the
// limit, but a corrupt record can carry any value, and folding it must not
// be undefined behaviour.
inline int64_t WrapAdd(int64_t sum, int64_t v) {
  return static_cast<int64_t>(static_cast<uint64_t>(sum) + static_cast<uint64_t>(v));
}

// The shards one kShardTiming record covers: v1, where 0 (a trace written
// before work units, when every record timed one shard) counts as 1.
inline uint64_t TimedShards(const TraceRecord& r) {
  return r.v1 > 0 ? static_cast<uint64_t>(r.v1) : 1;
}

}  // namespace cinder
