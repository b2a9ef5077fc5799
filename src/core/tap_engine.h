// The tap engine executes all tap flows in a periodic batch "to minimize
// scheduling and context-switch overheads" (paper section 3.3), and applies
// the global anti-hoarding decay: every non-exempt reserve leaks toward the
// battery with a configurable half-life, 10 minutes by default, so that 50%
// of hoarded resources return within one half-life (paper section 5.2.2).
//
// Flows are processed in tap-id (creation) order, so results are
// deterministic. Transfers are integer; sub-unit remainders are carried per
// tap / per reserve so low rates are exact in the long run, and global
// conservation holds to the nanojoule.
//
// Sharded execution (src/exec): taps only touch the two reserves they
// connect, so the connected components of the reserve/tap graph are
// independent within a batch. With sharding enabled the cached flow plan is
// laid out shard-major and each shard runs its two tap passes plus its decay
// slice back to back. Consecutive small shards are packed into work units —
// contiguous plan ranges of whole shards, about kUnitWeight entries each — so
// a fleet of thousands of tiny components costs a few hundred work items,
// not one per component. Units run serially, or on a ShardExecutor worker
// pool (heaviest first, so one giant component never serializes the tail of
// a batch). Cross-shard state (flow totals, decay leakage into the battery
// root) is accumulated per shard and merged after the batch in shard order;
// a shard's leakage into its own sink is settled inside its ticket. Results
// are bit-identical to the unsharded engine regardless of worker count.
//
// One batch pipeline serves every mode (unsharded, sharded, range-split, cut):
// pass-1 tickets, then — only when a shard is range-split — the serial split
// reduction, pass-2 range tickets and the serial split finalize, then one
// fixed-order merge. Unsharded is the one-shard case — a single whole-shard
// ticket run in the caller. A cut component is one pass-1 ticket that runs
// its members' passes, its boundary settlement and its members' decay in
// order; cutting bounds sub-shard sizes, it adds no parallelism.
//
// Structure-of-arrays state bank: while a plan is live, the hot mutable state
// of every reserve (level, deposited, decay carry, decay flags) and every
// planned tap (carry, transferred, rate, enabled) lives in the engine-owned
// ReserveStateBank / TapStateBank — parallel flat arrays indexed by dense
// per-epoch slots, shard-major with cache-line-aligned shard slices. The plan
// itself stores bank slots, not pointers: both tap passes and the decay
// skip-list walk nothing but flat arrays. Reserve/Tap objects
// read/write through their slot while attached and get the state written back
// on plan invalidation (see src/core/state_bank.h for the contract).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/core/reserve.h"
#include "src/core/state_bank.h"
#include "src/core/tap.h"
#include "src/exec/shard_task.h"
#include "src/histar/kernel.h"

namespace cinder {

// Full definitions live in src/exec; the engine's header only needs the
// dependency-free ShardTask interface.
class ShardExecutor;
class ShardPartitioner;
class TraceDomain;
class TraceRing;

// Intra-shard range split: a component whose plan section has at least
// `min_entries` entries (or whose partitioner-reported edge count reaches it)
// runs its two tap passes as `ranges` contiguous plan-entry ranges with a
// deterministic reduction between them, so one giant component can occupy
// every worker instead of one. The result is a fixed function of
// (min_entries, ranges) and the plan — never of the worker count or the
// execution interleaving — because every cross-range merge happens in range
// order on the calling thread (see docs/PERFORMANCE.md, "Range split").
struct SplitConfig {
  // 0 disables splitting; shards below the threshold keep the PR-3
  // one-work-item path and its alloc-free steady state.
  uint32_t min_entries = 4096;
  // Ranges per split shard. Fixed per plan; values < 2 disable splitting.
  uint32_t ranges = 8;
};

struct DecayConfig {
  bool enabled = true;
  // Default: 50% leaks away after 10 minutes.
  Duration half_life = Duration::Minutes(10);
  // Route each shard's decay leakage to that shard's smallest-id energy
  // reserve instead of the single battery root — fleet scenarios where each
  // phone's leakage should return to its own pool. The shard root itself does
  // not leak while this is on: it is the shard-local analogue of the
  // (decay-exempt) battery root. Reserves no tap touches belong to no
  // component and keep leaking to the battery. Takes effect on the next
  // batch; requires sharded mode (EnableSharding — a null executor is fine)
  // and is inert otherwise, since the sinks are the partitioner's components.
  bool to_shard_root = false;
};

class TapEngine final : public KernelObserver, public ShardTask, public ReserveDecayListener {
 public:
  // `battery_reserve` is the root reserve decay leaks back into.
  TapEngine(Kernel* kernel, ObjectId battery_reserve);
  ~TapEngine() override;

  TapEngine(const TapEngine&) = delete;
  TapEngine& operator=(const TapEngine&) = delete;

  DecayConfig& decay() { return decay_; }
  const DecayConfig& decay() const { return decay_; }

  // Takes effect on the next plan rebuild. Changing the values changes which
  // deterministic schedule the engine runs (they are part of the result's
  // definition, like the decay config), so fix them for a run.
  SplitConfig& split() { return split_; }
  const SplitConfig& split() const { return split_; }

  // Articulation-tap component cutting: components with more tap edges than
  // this are cut into bounded sub-shards at bridge taps (the partitioner's
  // lowest-flow-first cut selection). A cut component runs as one serial
  // ticket: its members' passes in order, severed taps parked in per-cut
  // slots and settled in fixed cut order, then its members' decay. Cutting
  // adds no parallelism; cut members are never range-split. 0 (default)
  // disables. Only meaningful in sharded mode; results stay bit-identical to
  // the uncut engine at any worker count. Takes effect on the next plan
  // rebuild.
  void set_cut_threshold(uint32_t threshold) {
    if (cut_threshold_ != threshold) {
      cut_threshold_ = threshold;
      plan_valid_ = false;
    }
  }
  uint32_t cut_threshold() const { return cut_threshold_; }

  // Registers a tap for batch processing. Returns false if the tap does not
  // exist or its endpoints are invalid / of mismatched resource kinds.
  bool Register(ObjectId tap_id);
  bool IsRegistered(ObjectId tap_id) const;
  size_t tap_count() const { return taps_.size(); }

  // Runs one batch covering `dt` of simulated time: all registered taps flow,
  // then decay leaks every non-exempt reserve toward the battery.
  void RunBatch(Duration dt);

  // -- Sharded execution --------------------------------------------------------
  // Partitions the flow plan into independent per-component shards and runs
  // each shard's batch as one work item on `executor` (serially in the
  // calling thread when null). Flows stay bit-identical to the unsharded
  // engine for any worker count. The engine does not own the executor; it
  // must outlive sharded batches.
  void EnableSharding(ShardExecutor* executor);
  void DisableSharding();
  bool sharding_enabled() const { return sharding_; }
  // Shards in the current plan (1 when sharding is disabled). Valid after a
  // plan build, i.e. after any batch.
  uint32_t shard_count() const { return num_shards_; }

  // Per-shard accounting since the last plan rebuild (sharded mode).
  struct ShardStats {
    uint32_t taps = 0;            // Plan entries in the shard.
    uint32_t decay_reserves = 0;  // Energy reserves whose decay runs here.
    uint32_t ranges = 1;          // Non-empty pass ranges (> 1 = split shard).
    Quantity tap_flow = 0;
    Quantity decay_flow = 0;
  };
  const std::vector<ShardStats>& shard_stats() const { return stats_; }
  // Work-unit packing: consecutive shards that are neither range-split nor
  // cut members join one unit until its weight (plan entries plus decay-list
  // reserves) reaches this; a shard at or above it is a unit of its own.
  // Unit sizes from 256 to 4,096 measured the same on the 20k-phone fleet
  // (docs/PERFORMANCE.md, "Work units").
  static constexpr uint32_t kUnitWeight = 1024;
  // A shard's packing weight: its plan entries plus its decay-list reserves.
  uint32_t shard_weight(uint32_t shard) const {
    return stats_[shard].taps + stats_[shard].decay_reserves;
  }
  // The pass-1 ticket table in the order it is handed to the executor: work
  // units (kWholeShard, shards [shard, shard_end)), split shards' ranges
  // (each weighted by its shard's weight / ranges) and one kCutParent per cut
  // component (weighted by its members' sum), heaviest first, so a giant
  // ticket starts immediately instead of serializing the tail of the batch.
  // Results never depend on it.
  const std::vector<ShardTicket>& pass1_tickets() const { return tickets_pass1_; }
  // The pass-2 ticket table: the split shards' kPass2Range tickets only.
  const std::vector<ShardTicket>& pass2_tickets() const { return tickets_pass2_; }

  // The partitioner (sharded mode only; null otherwise) — exposes
  // PartitionStats and the cut layout for tools and tests.
  const ShardPartitioner* partitioner() const { return partitioner_.get(); }
  // Live boundary cuts / cut parent components in the current plan (0 when
  // cutting is disabled or no component crossed the threshold).
  uint32_t boundary_cut_count() const { return static_cast<uint32_t>(cuts_.size()); }
  uint32_t cut_parent_count() const { return static_cast<uint32_t>(cut_parents_.size()); }
  // True if any cut parent ran the fused serial fallback on the last batch
  // (a cut destination's demand group was constrained, so deferring its
  // deposit was not provably invisible).
  bool AnyCutParentFused() const {
    for (uint8_t f : parent_fused_) {
      if (f != 0) return true;
    }
    return false;
  }

  // -- Telemetry ----------------------------------------------------------------
  // Attaches a trace domain: batches emit per-shard flow/timing records into
  // per-worker rings and flush one frame per batch; plan rebuilds size the
  // writer slots and dump the plan tables. Takes effect on the next batch
  // (the plan is invalidated so the rebuild can do the cold setup). The
  // engine does not own the domain; null detaches.
  void set_telemetry(TraceDomain* domain) {
    telem_ = domain;
    plan_valid_ = false;
  }
  TraceDomain* telemetry() const { return telem_; }

  // Registered taps whose source is `reserve`, in id order. Used by
  // ReserveClone / strict transfers to find backward (drain) taps.
  std::vector<ObjectId> TapsFromSource(ObjectId reserve) const;

  // Total quantity moved by taps / by decay since construction (for tests).
  Quantity total_tap_flow() const { return total_tap_flow_; }
  Quantity total_decay_flow() const { return total_decay_flow_; }

  // KernelObserver: drop deleted taps from the registry.
  void OnObjectDeleted(ObjectId id, ObjectType type) override;

  // ShardTask (executor-facing): runs one ticket of the current batch phase —
  // a work unit's batch, one range of a split shard's pass, or a whole cut
  // component's batch. Every kind touches only state its shards or range
  // own, so any interleaving across workers is race-free.
  void RunTicket(const ShardTicket& t) override;

  // ReserveDecayListener: a reserve became non-empty (or lost its exemption)
  // mid-epoch; put it back on its shard's decay skip-list. Safe from worker
  // threads because a reserve is only deposited into by its own shard.
  void OnReserveDecayable(Reserve* r) override;

 private:
  // A registered tap resolved for one plan build. Only used during
  // RebuildPlan: the plan the batch loops walk is the SoA triple
  // (plan_src_/plan_dst_/plan_group_) plus the tap bank arrays.
  struct ResolvedTap {
    Tap* tap;
    Reserve* src;
    Reserve* dst;
  };

  // Per-shard batch accumulators, merged (in shard order) after the parallel
  // phase. Cache-line sized so concurrent shards never false-share. FinishShard
  // writes all four fields at once, as 8-byte stores; tap_flow and decay_flow
  // are kept apart so the merge, which runs right after for a one-shard batch,
  // does not read them as one 16-byte pair that the CPU cannot forward from
  // two separate pending stores.
  struct alignas(64) ShardScratch {
    Quantity tap_flow = 0;
    Quantity decay_leak = 0;  // Banked for the battery root / shard sink.
    Quantity decay_flow = 0;
    Quantity decay_stray = 0;  // Stray reserves' leakage: always the battery.
  };

  bool PlanIsCurrent() const {
    return plan_valid_ && plan_epoch_ == kernel_->mutation_epoch();
  }
  void RebuildPlan();
  // Range-split plan: selects oversized shards, computes (group-boundary
  // snapped) range bounds, per-range distinct-group lane maps, the
  // shared/exclusive destination classification.
  void BuildSplitPlan();
  // The phase ticket tables (pass 1 / pass 2), covering split ranges, cut
  // members, and whole shards in largest-first order. Built for every plan:
  // with nothing split or cut, pass 1 is one whole-shard ticket per shard and
  // pass 2 is empty.
  void BuildTicketTables();
  // Runs one phase's tickets: on the pool when `use_pool`, else in order in
  // the caller.
  void Dispatch(const std::vector<ShardTicket>& tickets, bool use_pool);
  // The split execution pipeline (see RunBatch): pass-1 ranges accumulate
  // demand into private lanes; a serial range-order reduction folds lanes
  // into the canonical per-group totals and classifies each group as
  // unconstrained (scale == 1 provably) or constrained; pass-2 ranges
  // execute the unconstrained entries with exclusive-destination writes and
  // deferred lists; the serial finalize applies every deferred effect in
  // range order, runs the constrained entries in plan order, and the shard's
  // decay slice.
  void RunPass1Range(uint32_t split, uint32_t range);
  void ReduceSplitDemand(uint32_t split);
  void RunPass2Range(uint32_t split, uint32_t range);
  void FinalizeSplitShard(uint32_t split);
  // Articulation-cut plan: detects boundary entries (src and dst sub-shards
  // differ), builds the cut table, the parent member / fused-order tables,
  // and unifies each cut parent's decay sink. Runs after the shard tables
  // exist and before BuildSplitPlan (cut members never range-split).
  void BuildCutPlan();
  // A kCutParent ticket: the cut parent's whole batch — its members' demand
  // passes, the fused-fallback check on the cut destinations (GroupFits),
  // either the members' transfer passes plus the cut-order settlement or
  // RunFusedParent (the uncut pass 2 in tap-id order), then the members'
  // finish in ascending shard order, one kShardTiming and kBoundarySettle.
  void RunCutParent(uint32_t parent);
  void RunFusedParent(uint32_t parent, Quantity* settled, uint32_t* applied);
  // Copies bank state back into every surviving attached object and detaches
  // it (dead objects miss via their generation-tagged handles). Called before
  // every re-snapshot and from the destructor.
  void WriteBackBank();
  // -- The batch steps, each written once ---------------------------------------
  // A kWholeShard ticket: for each shard of the unit in index order, pass 1,
  // pass 2 and the shard's finish; then the unit's one kShardTiming record.
  void RunUnit(uint32_t first, uint32_t last);
  // The pass-1 loop over plan entries [begin, end) of `shard`: each enabled
  // tap's want goes to want_ and is added to demand[slot_of[i]] — the
  // shard's group totals (slot_of = plan_group_) or a range's private lane
  // (slot_of = entry_lane_).
  void DemandPass(uint32_t shard, uint32_t begin, uint32_t end, double* demand,
                  const uint32_t* slot_of);
  // The pass-2 loop over plan entries [begin, end) of `shard` in plan order;
  // returns the flow moved. kConstrainedOnly skips unconstrained groups' entries
  // (a split shard's serial tail: its pass-2 ranges ran those); kParkCuts
  // parks boundary entries' moves in their cut_moved_ slots (a cut member).
  template <bool kConstrainedOnly, bool kParkCuts>
  Quantity TransferPass(uint32_t shard, uint32_t begin, uint32_t end);
  // A group whose total demand provably fits its source's opening level:
  // scale == 1 and no clamp for each of its entries in any execution order.
  bool GroupFits(uint32_t group, const Quantity* lvl) const;
  // The end of one shard's batch: the decay slice, the shard's whole scratch
  // (tap_flow is the flow its tap passes moved), its kShardBatch record, and
  // — with decay_to_shard_root — the deposit of its leakage into its sink
  // (a cut member's is its parent's shared sink). `ring` is the calling
  // worker's ring (null: no records).
  void FinishShard(uint32_t shard, Quantity tap_flow, TraceRing* ring);
  struct DecayResult {
    Quantity flow = 0;
    Quantity leak = 0;   // flow minus stray: banked for the battery root / shard sink.
    Quantity stray = 0;  // Stray reserves' leakage: always the battery.
  };
  DecayResult DecayShard(uint32_t shard);
  // Telemetry: the calling worker's ring (null when telemetry is off or the
  // slot has none); one kShardTiming record for `shards` shards from `first`,
  // timed since t0; the split ranges' kRangeTiming; the rebuild-time plan
  // table dump (spill-direct).
  TraceRing* WorkerRing() const;
  void EmitShardTiming(uint32_t first, uint32_t shards, int64_t t0);
  void EmitRangeTiming(uint32_t shard, uint32_t range, uint8_t pass, int64_t t0);
  void EmitPlanRecords();
  // A sink settlement: one leak deposit through the bank (with the decay
  // re-add when it refills the sink) plus its kReserveDeposit record into
  // `ring` when reserve ops are traced.
  void DepositToSink(Reserve* sink, Quantity amount, TraceRing* ring);

  Kernel* kernel_;
  ObjectId battery_reserve_;
  DecayConfig decay_;
  std::vector<ObjectId> taps_;  // Creation order == id order.

  // -- Cached flow plan (SoA) ---------------------------------------------------
  // Entries are laid out shard-major, tap-id order within a shard (one shard
  // holds everything when sharding is off); shard s owns plan indices
  // [shard_plan_begin_[s], shard_plan_begin_[s+1]). plan_src_/plan_dst_ hold
  // ReserveStateBank slots, plan_group_ the per-source demand slot. The
  // per-entry mutable state (tap carry/transferred/rate/enabled and the
  // pass-1 `want_` scratch) is indexed through the *padded* per-entry index
  // ti = shard_want_begin_[s] + (i - shard_plan_begin_[s]), so each shard's
  // slice of those arrays starts cache-line aligned and concurrent shards
  // never write the same line. -1 in want_ marks "skip".
  std::vector<uint32_t> plan_src_;
  std::vector<uint32_t> plan_dst_;
  std::vector<uint32_t> plan_group_;
  std::vector<uint32_t> shard_plan_begin_;
  std::vector<uint32_t> shard_want_begin_;
  std::vector<double> want_;
  double* want_base_ = nullptr;
  // Per distinct source reserve, indexed through group_base_: the vector is
  // over-allocated so group_base_ can start on a cache-line boundary, which
  // (with the per-shard slice padding in RebuildPlan) gives each shard
  // exclusive ownership of its demand lines.
  std::vector<double> group_demand_;
  double* group_base_ = nullptr;
  std::vector<uint32_t> shard_group_begin_;

  // -- State banks --------------------------------------------------------------
  // Reserve slots are dense per epoch and shard-major: shard s owns
  // [shard_slot_begin_[s], shard_slot_begin_[s+1]) with slices padded to
  // cache-line boundaries, id order within a shard. Tap slots are the padded
  // per-entry indices above.
  ReserveStateBank rbank_;
  TapStateBank tbank_;
  std::vector<uint32_t> shard_slot_begin_;

  // Decay skip-list, one per shard: bank slots of the non-empty, non-exempt
  // energy reserves whose decay this shard runs. Lazily pruned when a member
  // is found drained or exempted; refilled through OnReserveDecayable (cold
  // path) or the in-batch deposit hook (hot path). Capacity is reserved for
  // every assigned reserve at rebuild, so mid-epoch re-adds never allocate.
  std::vector<std::vector<uint32_t>> decay_active_;
  // Per-shard decay sink (DecayConfig::to_shard_root): the smallest-id
  // decay-wired reserve of the shard, resolved at plan build. The pointer is
  // epoch-valid like battery_cache_; the slot lets DecayShard skip the sink's
  // own leakage with one compare.
  std::vector<Reserve*> shard_sink_;
  std::vector<uint32_t> shard_sink_slot_;

  // -- Range split (intra-shard parallel tap passes) ----------------------------
  // Geometry is rebuilt with the plan; batches only read it. A "split slot"
  // u densely numbers the split shards; each has exactly split_k_ ranges
  // (possibly empty at the tail when entries < split_k_), with global
  // plan-entry bounds in range_bounds_[u * (split_k_ + 1) ..]. Lane slices
  // live in lanes_ at lane_base_[u * split_k_ + r], one slot per distinct
  // demand group the range touches (range_group_begin_/range_group_ids_ is
  // that CSR; entry_lane_ maps each plan entry to its group's lane slot).
  // Per-range deferred work reuses the dense plan-entry index space: range
  // [b, e) owns slices [b, e) of deferred_slot_/deferred_amt_ (shared-dst
  // deposits, applied serially in range order) and pending_slot_ (decay
  // list re-adds from exclusive-dst deposits).
  static constexpr uint32_t kNoSplit = UINT32_MAX;
  SplitConfig split_;
  uint32_t split_k_ = 0;
  std::vector<uint32_t> split_shards_;    // split slot -> shard index
  std::vector<uint32_t> split_of_shard_;  // shard -> split slot or kNoSplit
  std::vector<uint32_t> range_bounds_;
  std::vector<uint32_t> lane_base_;
  std::vector<uint32_t> range_group_begin_;
  std::vector<uint32_t> range_group_ids_;
  std::vector<uint32_t> entry_lane_;
  std::vector<uint8_t> entry_dst_shared_;
  SplitLaneBank lanes_;
  std::vector<uint32_t> deferred_slot_;
  std::vector<Quantity> deferred_amt_;
  std::vector<uint32_t> pending_slot_;
  // Per-range batch accumulators (flow moved, deferred/pending counts),
  // cache-line sized like ShardScratch so concurrent ranges never false-share.
  struct alignas(64) RangeScratch {
    Quantity tap_flow = 0;
    uint32_t n_deferred = 0;
    uint32_t n_pending = 0;
  };
  std::vector<RangeScratch> range_scratch_;
  // Per demand group (padded global group index space): the source's bank
  // slot, the entry count, and the per-batch unconstrained classification
  // (written serially in ReduceSplitDemand, read by pass-2 ranges).
  std::vector<uint32_t> group_src_slot_;
  std::vector<uint32_t> group_size_;
  std::vector<uint8_t> group_fast_;
  std::vector<uint32_t> shard_group_count_;   // Used (unpadded) groups per shard.
  std::vector<uint32_t> split_slow_entries_;  // Per split slot, set each batch.
  // Ticket tables handed to the executor: pass 1 covers every shard (range
  // tickets for split shards, one kCutParent per cut parent, work units
  // otherwise) heaviest first; pass 2 covers only split shards' ranges.
  std::vector<ShardTicket> tickets_pass1_;
  std::vector<ShardTicket> tickets_pass2_;
  // Rebuild-only scratch for BuildSplitPlan (stamp maps over groups/slots).
  std::vector<uint32_t> split_group_stamp_;
  std::vector<uint32_t> split_group_lane_;
  std::vector<uint32_t> split_dst_stamp_;
  std::vector<uint32_t> split_dst_first_;
  std::vector<uint8_t> split_dst_shared_;

  // -- Articulation cuts (bounded shard sizes, epoch-batched boundaries) --------
  // Built with the plan when the partitioner severed bridge taps. A "cut
  // parent" densely numbers the pre-cut components that have at least one
  // live boundary entry; its member sub-shards run in its one kCutParent
  // ticket. cuts_ is ordered by (parent, tap id) — the settlement order —
  // with parent_cut_begin_ the CSR over it; entry_cut_ maps plan entries to
  // their cut index (kNoCut for non-boundary entries), and cut_moved_[c] is
  // the amount cut c moved this batch (its parent's ticket is the only
  // writer). The fused tables hold every entry of each cut parent in
  // ascending tap-id order with src/dst sub-shard per entry — the serial
  // fallback replays the uncut pass 2 exactly when a cut destination's group
  // is constrained.
  static constexpr uint32_t kNoCut = UINT32_MAX;
  struct BoundaryCut {
    uint32_t entry = 0;      // Dense plan-entry index of the severed tap.
    uint32_t dst_slot = 0;   // Destination reserve bank slot.
    uint32_t dst_shard = 0;  // Destination sub-shard (for decay re-adds).
    uint32_t dst_group = 0;  // Demand group sourced at the destination, or
                             // kNoCut (then deferral is always invisible).
  };
  uint32_t cut_threshold_ = 0;
  std::vector<BoundaryCut> cuts_;
  std::vector<uint32_t> cut_parents_;         // Dense -> partitioner parent id.
  std::vector<uint32_t> parent_cut_begin_;    // CSR over cuts_.
  std::vector<uint32_t> parent_shards_;       // Member sub-shards, ascending.
  std::vector<uint32_t> parent_shard_begin_;  // CSR over parent_shards_.
  std::vector<uint32_t> shard_cut_parent_;    // shard -> dense parent or kNoCut.
  std::vector<uint32_t> entry_cut_;
  std::vector<Quantity> cut_moved_;
  std::vector<uint32_t> fused_entries_;
  std::vector<uint32_t> fused_src_shard_;
  std::vector<uint32_t> fused_dst_shard_;
  std::vector<uint32_t> parent_fused_begin_;  // CSR over fused_entries_.
  std::vector<uint8_t> parent_fused_;         // Per batch: 1 = fused fallback.

  std::vector<ShardScratch> scratch_;
  std::vector<ShardStats> stats_;
  Reserve* battery_cache_ = nullptr;
  uint64_t plan_epoch_ = 0;
  bool plan_valid_ = false;

  // -- Telemetry ----------------------------------------------------------------
  // Mask bits are cached once per batch on the main thread before any
  // dispatch; workers read them past the executor's happens-before edge, so
  // plain bools are race-free.
  TraceDomain* telem_ = nullptr;
  bool telem_on_ = false;
  bool telem_shard_batch_ = false;
  bool telem_shard_timing_ = false;
  bool telem_range_timing_ = false;
  bool telem_taps_ = false;
  bool telem_decay_records_ = false;
  bool telem_reserve_ops_ = false;
  bool telem_boundary_ = false;

  bool sharding_ = false;
  ShardExecutor* executor_ = nullptr;
  std::unique_ptr<ShardPartitioner> partitioner_;  // Created on EnableSharding.
  uint32_t num_shards_ = 1;
  // Batch-wide constants published before the (possibly parallel) shard runs.
  double batch_dt_s_ = 0.0;
  double decay_frac_ = 0.0;
  bool decay_to_root_ = false;

  // Rebuild-only scratch (kept to reuse capacity across rebuilds).
  struct WorkItem {  // BuildTicketTables: a unit, split shard or cut parent.
    uint32_t weight;
    uint32_t begin;  // Shards [begin, end).
    uint32_t end;
  };
  std::vector<WorkItem> work_items_;
  std::vector<ResolvedTap> resolved_;
  std::vector<ResolvedTap> sorted_resolved_;
  std::vector<uint32_t> entry_shard_;
  std::vector<uint32_t> reserve_shard_;
  std::vector<uint8_t> reserve_stray_;

  Quantity total_tap_flow_ = 0;
  Quantity total_decay_flow_ = 0;
};

}  // namespace cinder
