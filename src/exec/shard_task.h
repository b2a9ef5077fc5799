// The per-ticket work interface, split into its own dependency-free header so
// producers of shard work (the tap engine in src/core) can implement it
// without pulling the executor's <thread>/<condition_variable> machinery
// into their own headers. The dependency arrow for the heavy half stays
// exec -> core: only ShardExecutor's implementation knows about threads.
#pragma once

#include <cstdint>

namespace cinder {

// What one executor ticket dispatches to. kWholeShard is a work unit: a run
// of whole shards, each getting its full batch, packed so that thousands of
// tiny components cost a handful of tickets; the range kinds subdivide a
// single oversized shard's tap passes into contiguous plan-entry ranges that
// touch disjoint scratch lanes, so a giant component can occupy every worker
// instead of one.
enum class ShardTicketKind : uint8_t {
  kWholeShard = 0,  // Shards [shard, shard_end), one after another.
  kPass1Range = 1,  // Demand pass over [range) into a private lane slice.
  kPass2Range = 2,  // Transfer pass over the range's unconstrained entries.
  // Sub-shards of a cut component (see ShardPartitioner cut selection) run
  // their two tap passes as separate phases so the serial settlement between
  // phase B and the merge can apply boundary-tap transfers in cut order:
  kCutPass1 = 3,  // Demand pass of one whole sub-shard.
  kCutPass2 = 4,  // Transfer pass; boundary deposits drain into lanes.
};

// One claimable unit of batch work. `shard` is the (first) shard it runs; a
// kWholeShard ticket's unit ends before `shard_end`. The range kinds carry
// the producer's dense split-slot index (`split`, its table of split shards)
// and the range number within it.
struct ShardTicket {
  uint32_t shard = 0;
  uint32_t split = 0;
  uint32_t range = 0;
  ShardTicketKind kind = ShardTicketKind::kWholeShard;
  uint32_t shard_end = 0;
};

// One batch phase's worth of shardable work, handed over as a ticket table.
// RunTicket is called exactly once per ticket per ShardExecutor::RunTickets
// call, from any worker, in any interleaving. A ticket must touch only state
// its shard (or, for range kinds, its range: private lanes and its slice of
// the per-entry arrays) owns, so the interleaving is race-free and the
// producer's fixed-order reduction after the phase alone defines the result.
class ShardTask {
 public:
  virtual ~ShardTask() = default;
  virtual void RunTicket(const ShardTicket& t) = 0;
};

}  // namespace cinder
