// Partitions the kernel's reserve/tap graph into independent shards.
//
// Taps only move resources between the two reserves they connect, so the
// connected components of the (reserve, tap-edge) graph never interact within
// a tap batch: a component's flows read and write only its own reserves. The
// partitioner runs a union-find over every live tap's (source, sink) pair and
// labels each component with a shard index. Shard indices are deterministic —
// components are numbered by their smallest reserve id — so a layout computed
// on any machine, with any worker count, is identical.
//
// Articulation-tap cutting (set_cut_threshold): a component with more tap
// edges than the threshold is cut into sub-shards of bounded size by severing
// bridge taps — taps whose removal disconnects the component. Severed taps
// become *boundary taps*: the tap engine runs them in their source's
// sub-shard but parks the cross-shard deposit in a per-cut slot, settled in
// fixed cut order once every member's pass 2 has run, so results stay
// bit-identical to the uncut engine (docs/PERFORMANCE.md, articulation-tap
// component cutting). The members of one cut component run as one serial
// ticket. Cut selection severs the lowest-flow bridges first and refuses
// cuts that would strand a tiny side (min side below half the threshold),
// so a pure fan-out star — every edge a bridge, but every cut useless — is
// never shredded; the range split handles those instead. An
// edge counts toward the side holding its *source* reserve, which is exactly
// the plan-section size the engine will build, so the bound is the real one.
//
// The layout is recomputed lazily on the kernel *topology* epoch (reserve or
// tap create/delete). Label changes, credential changes, and thread or
// container churn invalidate the tap engine's flow plan but cannot change
// which reserves are connected, so they deliberately do not invalidate the
// layout. Unregistered or label-blocked taps still contribute their edge:
// that can only merge shards that could legally have been split, which is
// conservative and always correct. Cut selection reads tap flow rates (and,
// for proportional taps, source levels) at partition time; those can drift
// without an epoch bump, which only changes *which* deterministic layout the
// next topology change computes — never the correctness of the current one.
#pragma once

#include <cstdint>
#include <vector>

#include "src/histar/kernel.h"

namespace cinder {

struct ShardLayout {
  // Shard index per component; at least 1 once any reserve exists.
  uint32_t num_shards = 0;
  // Parallel to Kernel::ObjectsOfType(kReserve) at compute time (id order):
  // the reserve ids and each reserve's shard (kNoShard if no tap touches it).
  std::vector<ObjectId> reserve_ids;
  std::vector<uint32_t> reserve_shard;
  // Component sizes, indexed by shard: tap edges and reserves per component.
  // Edges count on their source reserve's side, matching the plan-section
  // size the engine builds. The tap engine's range split keys on these — only
  // components above the split threshold subdivide their batch passes;
  // everything else keeps the one-work-item path (and its alloc-free steady
  // state) untouched.
  std::vector<uint32_t> shard_edges;
  std::vector<uint32_t> shard_reserves;
  // Cutting: the pre-cut component ("parent") each shard belongs to, indexed
  // by shard. Identity when nothing was cut; a cut parent has >= 2 member
  // shards. Parents are numbered by smallest reserve id, like shards, so the
  // numbering is deterministic too.
  std::vector<uint32_t> shard_parent;
  uint32_t num_parents = 0;
  // Severed tap ids, ascending. A severed tap's endpoints land in different
  // shards; every other tap keeps both endpoints in one shard.
  std::vector<ObjectId> boundary_taps;
  uint64_t topology_epoch = 0;

  static constexpr uint32_t kNoShard = UINT32_MAX;
};

// One partition's summary, for tools and acceptance checks (examples/fleet
// prints it; the hub-and-chain CI smoke greps it).
struct PartitionStats {
  uint32_t components = 0;     // Pre-cut connected components.
  uint32_t largest_edges = 0;  // Edge count of the largest pre-cut component.
  uint32_t cuts_made = 0;      // Components that were actually cut.
  uint32_t boundary_taps = 0;  // Severed taps across all cuts.
};

class ShardPartitioner {
 public:
  // Returns the layout for the kernel's current reserve/tap graph,
  // recomputing only when the topology epoch moved.
  const ShardLayout& Partition(const Kernel& kernel);

  // Shard of `reserve` in the last computed layout, or ShardLayout::kNoShard
  // for reserves no tap touches (decay-only work; the caller distributes
  // those round-robin).
  uint32_t ShardOfReserve(ObjectId reserve) const;

  // Components with more tap edges than this are cut into bounded sub-shards
  // at bridge taps; 0 (the default) disables cutting. Changing the value
  // invalidates the cached layout — it changes which deterministic layout is
  // computed, like the topology itself.
  void set_cut_threshold(uint32_t threshold) {
    if (cut_threshold_ != threshold) {
      cut_threshold_ = threshold;
      valid_ = false;
    }
  }
  uint32_t cut_threshold() const { return cut_threshold_; }

  const ShardLayout& layout() const { return layout_; }
  const PartitionStats& stats() const { return stats_; }
  bool valid() const { return valid_; }

 private:
  // One resolved tap edge: reserve indices (into layout_.reserve_ids) plus
  // the tap id, kept so cut selection can rank bridges by flow.
  struct TapEdge {
    uint32_t a = 0;  // Source reserve index.
    uint32_t b = 0;  // Sink reserve index.
    ObjectId tap = kInvalidObjectId;
  };

  uint32_t Find(uint32_t i);
  // Severs bridges of one oversized component until every part's edge weight
  // is bounded (or no useful bridge remains). `edges` indexes edges_ members
  // of the component; severed edges get severed_[edge] = 1.
  void CutComponent(const Kernel& kernel, const std::vector<uint32_t>& edges);

  ShardLayout layout_;
  PartitionStats stats_;
  std::vector<uint32_t> parent_;  // Union-find scratch over reserve indices.
  std::vector<TapEdge> edges_;    // Resolved edges, tap-id order.
  std::vector<uint8_t> severed_;  // Parallel to edges_.
  uint32_t cut_threshold_ = 0;
  bool valid_ = false;
};

}  // namespace cinder
