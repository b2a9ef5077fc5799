#include "src/core/tap_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>
#include <unordered_map>

#include "src/base/log.h"
#include "src/exec/shard_executor.h"
#include "src/exec/shard_partitioner.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {

namespace {
// Wall clock for the timing record kinds. Only read when the timing bits are
// in the record mask — the values land in telemetry records, never in any
// engine result, so determinism is untouched.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The pass-2 grant step of one enabled tap: the whole want, or a
// proportional share of the source when its group's running demand exceeds
// what the source holds; the sub-unit remainder is kept as carry and the
// move clamped to the source level. Returns the quantity debited from
// `src_level` (0: nothing moves).
inline Quantity Grant(double want, double& demand, Quantity& src_level, double& carry) {
  const Quantity level = src_level;
  const double avail = level > 0 ? static_cast<double>(level) : 0.0;
  const double scale = (demand > avail && demand > 0.0) ? avail / demand : 1.0;
  const double granted = want * scale;
  demand -= want;
  const auto whole = static_cast<Quantity>(granted);
  // The carry keeps only the sub-unit part of the granted flow; demand the
  // source could not cover is dropped, not banked.
  carry = granted - static_cast<double>(whole);
  if (whole <= 0) {
    return 0;
  }
  const Quantity moved = level < whole ? level : whole;
  if (moved <= 0) {
    return 0;
  }
  src_level = level - moved;
  return moved;
}

// Deposits `m` into bank slot `d` — Reserve::Deposit on the bank arrays,
// listener hook included: returns true when the deposit flipped a
// decay-wired reserve from empty to non-empty while it was off its decay
// list. The flag is then set, and the caller appends `d` to the list that
// owns it.
inline bool DepositRelists(Quantity* lvl, Quantity* dep, uint8_t* rflags, uint32_t d,
                           Quantity m) {
  const Quantity dst_level = lvl[d];
  lvl[d] = dst_level + m;
  dep[d] += m;
  if (dst_level <= 0 && lvl[d] > 0) {
    const uint8_t df = rflags[d];
    if ((df & ReserveStateBank::kDecayWired) != 0 &&
        (df & ReserveStateBank::kInDecayList) == 0) {
      rflags[d] = df | ReserveStateBank::kInDecayList;
      return true;
    }
  }
  return false;
}
}  // namespace

TapEngine::TapEngine(Kernel* kernel, ObjectId battery_reserve)
    : kernel_(kernel), battery_reserve_(battery_reserve) {
  kernel_->AddObserver(this);
}

TapEngine::~TapEngine() {
  // Reserves and taps outlive the engine in every embedding (the kernel owns
  // them): return the bank state to the objects, then clear the
  // decay-listener back-pointers so later deposits don't call into a dead
  // engine.
  WriteBackBank();
  for (ObjectId id : kernel_->ObjectsOfType(ObjectType::kReserve)) {
    Reserve* r = kernel_->LookupTyped<Reserve>(id);
    if (r != nullptr && r->decay_listener() == this) {
      r->DetachDecayListener();
    }
  }
  kernel_->RemoveObserver(this);
  // The write-back just moved every attached reserve's level cell from the
  // bank arrays (dying with this engine) back to the objects; bump the epoch
  // so epoch-keyed caches of those cells (the scheduler's) re-resolve instead
  // of dereferencing freed bank storage.
  kernel_->InvalidateCaches();
}

bool TapEngine::Register(ObjectId tap_id) {
  Tap* tap = kernel_->LookupTyped<Tap>(tap_id);
  if (tap == nullptr) {
    return false;
  }
  Reserve* src = kernel_->LookupTyped<Reserve>(tap->source());
  Reserve* dst = kernel_->LookupTyped<Reserve>(tap->sink());
  if (src == nullptr || dst == nullptr || src->kind() != dst->kind() ||
      tap->source() == tap->sink()) {
    return false;
  }
  auto it = std::lower_bound(taps_.begin(), taps_.end(), tap_id);
  if (it != taps_.end() && *it == tap_id) {
    return true;
  }
  taps_.insert(it, tap_id);
  plan_valid_ = false;
  return true;
}

bool TapEngine::IsRegistered(ObjectId tap_id) const {
  return std::binary_search(taps_.begin(), taps_.end(), tap_id);
}

void TapEngine::EnableSharding(ShardExecutor* executor) {
  sharding_ = true;
  executor_ = executor;
  if (partitioner_ == nullptr) {
    partitioner_ = std::make_unique<ShardPartitioner>();
  }
  plan_valid_ = false;
}

void TapEngine::DisableSharding() {
  sharding_ = false;
  executor_ = nullptr;
  plan_valid_ = false;
}

void TapEngine::WriteBackBank() {
  // Generation-tagged handles make this exact under churn: a slab slot
  // recycled since the snapshot fails the generation check, so a dead
  // reserve's state can never be written into the slot's new tenant. The
  // bank-identity check keeps a second engine's attachments untouched.
  for (uint32_t slot = 0; slot < rbank_.size(); ++slot) {
    const ObjectHandle h = rbank_.handle(slot);
    if (!h.valid()) {
      continue;  // Padding slot, or never attached.
    }
    Reserve* r = kernel_->LookupTyped<Reserve>(h);
    if (r != nullptr && r->bank() == &rbank_ && r->bank_slot() == slot) {
      r->DetachBank();
    }
  }
  for (uint32_t slot = 0; slot < tbank_.size(); ++slot) {
    const ObjectHandle h = tbank_.handle(slot);
    if (!h.valid()) {
      continue;
    }
    Tap* t = kernel_->LookupTyped<Tap>(h);
    if (t != nullptr && t->bank() == &tbank_ && t->bank_slot() == slot) {
      t->DetachBank();
    }
  }
}

void TapEngine::RebuildPlan() {
  // Return the previous epoch's bank state to the surviving objects before
  // re-snapshotting: cold-path mutations made since then went through the
  // bank, so the objects are stale until this runs.
  WriteBackBank();

  resolved_.clear();
  for (ObjectId id : taps_) {
    Tap* tap = kernel_->LookupTyped<Tap>(id);
    if (tap == nullptr) {
      continue;
    }
    Reserve* src = kernel_->LookupTyped<Reserve>(tap->source());
    Reserve* dst = kernel_->LookupTyped<Reserve>(tap->sink());
    if (src == nullptr || dst == nullptr) {
      continue;  // Endpoint deleted; tap is inert until deleted itself.
    }
    // The tap acts with its embedded credentials: it must be able to use
    // (observe + modify) both endpoints. Any label or credential change bumps
    // the kernel epoch, so checking once per plan is exact.
    if (!Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *src) ||
        !Kernel::CanUseWith(tap->actor_label(), tap->embedded_privileges(), *dst)) {
      continue;
    }
    resolved_.push_back({tap, src, dst});
  }

  // Shard assignment: one shard per connected component when sharding is on,
  // a single shard holding everything otherwise. The partitioner caches on
  // the topology epoch, so label flaps rebuild the plan without re-running
  // the union-find.
  num_shards_ = 1;
  if (sharding_) {
    partitioner_->set_cut_threshold(cut_threshold_);
    const ShardLayout& layout = partitioner_->Partition(*kernel_);
    num_shards_ = layout.num_shards == 0 ? 1 : layout.num_shards;
  }
  const bool multi = sharding_ && num_shards_ > 1;
  constexpr uint32_t kAlign = 64 / sizeof(double);  // Per-entry slots per cache line.
  auto pad = [multi](uint32_t v) {
    return multi ? (v + kAlign - 1) / kAlign * kAlign : v;
  };
  // Reserve slots pad to a full 64: the bank's flags array is one byte per
  // slot and its decay-list bits are written from worker threads, so only a
  // 64-slot boundary keeps adjacent shards' flag slices off a shared line
  // (the 8-byte arrays get 512-byte alignment for free).
  constexpr uint32_t kSlotAlign = 64;
  auto pad_slots = [multi](uint32_t v) {
    return multi ? (v + kSlotAlign - 1) / kSlotAlign * kSlotAlign : v;
  };

  // ---- Reserve slot assignment: shard-major, id order within a shard, each
  // shard's slice starting cache-line aligned (like group_demand_). Reserves
  // no tap touches get kNoShard from the partitioner and are spread
  // round-robin (in id order, so deterministically).
  const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
  const auto nr = static_cast<uint32_t>(reserves.size());
  reserve_shard_.assign(nr, 0);
  reserve_stray_.assign(nr, 0);
  std::vector<uint32_t> slot_count(num_shards_, 0);
  uint32_t round_robin = 0;
  for (uint32_t i = 0; i < nr; ++i) {
    uint32_t s = 0;
    // Strayness (no tap touches the reserve) is a property of the component
    // graph, not of the shard count: classify it whenever a partitioner ran,
    // so a single-component fleet routes stray leakage exactly like a large
    // one.
    if (sharding_) {
      const uint32_t ps = partitioner_->ShardOfReserve(reserves[i]);
      if (ps == ShardLayout::kNoShard) {
        reserve_stray_[i] = 1;  // Belongs to no component.
        if (multi) {
          s = round_robin++ % num_shards_;  // Decay-only reserve: spread evenly.
        }
      } else if (multi) {
        s = ps;
      }
    }
    reserve_shard_[i] = s;
    ++slot_count[s];
  }
  shard_slot_begin_.assign(num_shards_ + 1, 0);
  uint32_t next_slot = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    next_slot = pad_slots(next_slot);
    shard_slot_begin_[s] = next_slot;
    next_slot += slot_count[s];
  }
  shard_slot_begin_[num_shards_] = next_slot;
  rbank_.Reset(next_slot);

  // Snapshot every reserve into its slot and wire the decay pass: energy
  // reserves (battery excluded) get the listener hook and count toward their
  // shard's skip-list capacity; the smallest-id wired reserve of each shard
  // becomes the shard's decay sink (DecayConfig::to_shard_root).
  std::vector<uint32_t> cursor(shard_slot_begin_.begin(), shard_slot_begin_.end() - 1);
  std::vector<uint32_t> assigned(num_shards_, 0);
  shard_sink_.assign(num_shards_, nullptr);
  shard_sink_slot_.assign(num_shards_, kNoBankSlot);
  for (uint32_t i = 0; i < nr; ++i) {
    const ObjectId id = reserves[i];
    Reserve* r = kernel_->LookupTyped<Reserve>(id);
    const uint32_t s = reserve_shard_[i];
    const uint32_t slot = cursor[s]++;
    r->AttachBank(&rbank_, slot, kernel_->HandleOf(id));
    r->set_in_decay_list(false);
    if (id == battery_reserve_ || r->kind() != ResourceKind::kEnergy) {
      if (r->decay_listener() == this) {
        r->DetachDecayListener();
      }
      continue;
    }
    r->AttachDecayListener(this, s);
    rbank_.set_flag(slot, ReserveStateBank::kDecayWired, true);
    ++assigned[s];
    if (reserve_stray_[i] != 0) {
      // A round-robined stray is in the shard for load balance only: its
      // leakage goes to the battery root (it has no component whose pool
      // could rightfully claim it), and it can never be the shard's sink.
      rbank_.set_flag(slot, ReserveStateBank::kStrayShard, true);
    } else if (shard_sink_slot_[s] == kNoBankSlot) {
      shard_sink_slot_[s] = slot;  // Id order: first wired == smallest id.
      shard_sink_[s] = r;
    }
  }
  decay_active_.assign(num_shards_, {});
  for (uint32_t s = 0; s < num_shards_; ++s) {
    decay_active_[s].reserve(assigned[s]);
  }
  for (uint32_t i = 0; i < nr; ++i) {
    Reserve* r = kernel_->LookupTyped<Reserve>(reserves[i]);
    if (r->decay_listener() != this) {
      continue;
    }
    if (!r->decay_exempt() && r->level() > 0) {
      decay_active_[r->decay_shard()].push_back(r->bank_slot());
      r->set_in_decay_list(true);
    }
  }

  // ---- Plan entries: counting sort into shard-major order, stable so each
  // shard keeps tap-id order (the order the unsharded engine flows in).
  const auto n = static_cast<uint32_t>(resolved_.size());
  if (multi) {
    entry_shard_.resize(n);
    shard_plan_begin_.assign(num_shards_ + 1, 0);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t s = partitioner_->ShardOfReserve(resolved_[i].src->id());
      if (s == ShardLayout::kNoShard) {
        s = 0;  // Unreachable: a plan entry's endpoints are a live tap edge.
      }
      entry_shard_[i] = s;
      ++shard_plan_begin_[s + 1];
    }
    for (uint32_t s = 0; s < num_shards_; ++s) {
      shard_plan_begin_[s + 1] += shard_plan_begin_[s];
    }
    sorted_resolved_.resize(n);
    std::vector<uint32_t> entry_cursor(shard_plan_begin_.begin(), shard_plan_begin_.end() - 1);
    for (uint32_t i = 0; i < n; ++i) {
      sorted_resolved_[entry_cursor[entry_shard_[i]]++] = resolved_[i];
    }
    resolved_.swap(sorted_resolved_);
    // Keep the capacity for the next rebuild but drop the stale entries: raw
    // Tap*/Reserve* pointers must not outlive their objects.
    sorted_resolved_.clear();
  } else {
    shard_plan_begin_.assign({0, n});
  }

  // Padded per-entry index ranges: the mutable per-entry arrays (want_, tap
  // carry/transferred/rate/flags) use ti = shard_want_begin_[s] + (i -
  // shard_plan_begin_[s]) so each shard's slice starts on a cache line; the
  // dense plan arrays stay compact.
  shard_want_begin_.assign(num_shards_ + 1, 0);
  uint32_t next_want = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    next_want = pad(next_want);
    shard_want_begin_[s] = next_want;
    next_want += shard_plan_begin_[s + 1] - shard_plan_begin_[s];
  }
  shard_want_begin_[num_shards_] = next_want;
  want_base_ = bank_internal::Align64(want_, next_want);
  tbank_.Reset(next_want);

  // Demand groups (taps sharing a source reserve), numbered contiguously per
  // shard so each shard owns a disjoint slice of group_demand_; slices are
  // padded to cache-line boundaries like the slot and want slices. Padding
  // slots belong to the preceding shard (its fill covers them) and no group
  // index ever points at one.
  shard_group_begin_.assign(num_shards_ + 1, 0);
  shard_group_count_.assign(num_shards_, 0);
  plan_src_.assign(n, 0);
  plan_dst_.assign(n, 0);
  plan_group_.assign(n, 0);
  std::unordered_map<ObjectId, uint32_t> source_group;
  uint32_t next_group = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    next_group = pad(next_group);
    shard_group_begin_[s] = next_group;
    source_group.clear();
    for (uint32_t i = shard_plan_begin_[s]; i < shard_plan_begin_[s + 1]; ++i) {
      const ResolvedTap& e = resolved_[i];
      auto [it, inserted] = source_group.emplace(e.tap->source(), next_group);
      if (inserted) {
        ++next_group;
      }
      plan_group_[i] = it->second;
      plan_src_[i] = e.src->bank_slot();
      plan_dst_[i] = e.dst->bank_slot();
      const uint32_t ti = shard_want_begin_[s] + (i - shard_plan_begin_[s]);
      e.tap->AttachBank(&tbank_, ti, kernel_->HandleOf(e.tap->id()));
    }
    shard_group_count_[s] = next_group - shard_group_begin_[s];
  }
  shard_group_begin_[num_shards_] = next_group;
  group_base_ = bank_internal::Align64(group_demand_, next_group);
  // Per-group metadata for the range split: the source's slot (group <->
  // source is a bijection within a shard) and the entry count, so the
  // classification step and the slow-entry accounting need no extra sweeps
  // per batch. Cheap enough to keep for every plan.
  group_src_slot_.assign(next_group, 0);
  group_size_.assign(next_group, 0);
  group_fast_.assign(next_group, 1);
  for (uint32_t i = 0; i < n; ++i) {
    group_src_slot_[plan_group_[i]] = plan_src_[i];
    ++group_size_[plan_group_[i]];
  }

  scratch_.assign(num_shards_, ShardScratch{});
  stats_.assign(num_shards_, ShardStats{});
  for (uint32_t s = 0; s < num_shards_; ++s) {
    stats_[s].taps = shard_plan_begin_[s + 1] - shard_plan_begin_[s];
    stats_[s].decay_reserves = assigned[s];
  }

  BuildCutPlan();
  BuildSplitPlan();
  BuildTicketTables();

  if (telem_ != nullptr && telem_->enabled()) {
    EmitPlanRecords();
  }

  // The plan no longer needs the resolved pointers; drop them eagerly (the
  // capacity stays for the next rebuild).
  resolved_.clear();

  battery_cache_ = kernel_->LookupTyped<Reserve>(battery_reserve_);
  // Attaching the objects to this engine's banks stranded any sibling
  // engine's snapshot; bump the epoch so a sibling re-snapshots (its next
  // AttachBank writes our live values back through this bank first) instead
  // of batch-running stale arrays. Engines alternating on one kernel rebuild
  // every batch — correct, just not the fast path.
  kernel_->InvalidateCaches();
  plan_epoch_ = kernel_->mutation_epoch();
  plan_valid_ = true;
}

void TapEngine::BuildSplitPlan() {
  const auto n = static_cast<uint32_t>(plan_src_.size());
  split_of_shard_.assign(num_shards_, kNoSplit);
  split_shards_.clear();
  split_k_ = split_.ranges;
  const bool enabled = sharding_ && split_.min_entries > 0 && split_.ranges >= 2;
  if (enabled) {
    const ShardLayout& layout = partitioner_->layout();
    for (uint32_t s = 0; s < num_shards_; ++s) {
      // Members of a cut parent never range-split: the cut threshold already
      // bounds their plan sections, and their parent's ticket runs them
      // whole, with the boundary settlement between their passes.
      if (shard_cut_parent_[s] != kNoCut) {
        continue;
      }
      const uint32_t entries = shard_plan_begin_[s + 1] - shard_plan_begin_[s];
      // Size by the larger of the partitioner's component edge count and the
      // live plan section: the edge count is topology-stable, so a label
      // flap that hides a few taps cannot flip a component in and out of
      // splitting between rebuilds.
      uint32_t size = entries;
      if (partitioner_->valid() && s < layout.shard_edges.size() && layout.shard_edges[s] > size) {
        size = layout.shard_edges[s];
      }
      if (entries >= 2 && size >= split_.min_entries) {
        split_of_shard_[s] = static_cast<uint32_t>(split_shards_.size());
        split_shards_.push_back(s);
      }
    }
  }
  const auto nu = static_cast<uint32_t>(split_shards_.size());
  if (nu == 0) {
    // Nothing splits this epoch: none of the range machinery below is
    // allocated or touched.
    lanes_.Clear();
    return;
  }

  const uint32_t k = split_k_;
  range_bounds_.assign(static_cast<size_t>(nu) * (k + 1), 0);
  lane_base_.assign(static_cast<size_t>(nu) * k, 0);
  range_group_begin_.assign(static_cast<size_t>(nu) * k + 1, 0);
  range_group_ids_.clear();
  entry_lane_.assign(n, 0);
  entry_dst_shared_.assign(n, 0);
  range_scratch_.assign(static_cast<size_t>(nu) * k, RangeScratch{});
  split_slow_entries_.assign(nu, 0);
  // Deferred/pending slices reuse the dense plan-entry index space: range
  // [b, e) owns [b, e) of each array, so capacity is exact and batches never
  // push_back (the alloc-free steady-state contract).
  deferred_slot_.assign(n, 0);
  deferred_amt_.assign(n, 0);
  pending_slot_.assign(n, 0);

  const uint32_t total_groups = shard_group_begin_[num_shards_];
  split_group_stamp_.assign(total_groups, 0);
  split_group_lane_.assign(total_groups, 0);
  split_dst_stamp_.assign(rbank_.size(), 0);
  split_dst_first_.assign(rbank_.size(), 0);
  split_dst_shared_.assign(rbank_.size(), 0);

  constexpr uint32_t kLanePad = 64 / sizeof(double);  // Lane slots per cache line.
  uint32_t next_lane = 0;
  for (uint32_t u = 0; u < nu; ++u) {
    const uint32_t s = split_shards_[u];
    const uint32_t lo = shard_plan_begin_[s];
    const uint32_t hi = shard_plan_begin_[s + 1];
    const uint32_t len = hi - lo;
    uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(u) * (k + 1);
    bounds[0] = lo;
    bounds[k] = hi;
    for (uint32_t j = 1; j < k; ++j) {
      const uint32_t even = lo + static_cast<uint32_t>(static_cast<uint64_t>(j) * len / k);
      // Snap forward to the next demand-group run boundary within a bounded
      // window: plans built from per-source tap creation lay each group
      // contiguous, so a small nudge keeps most groups whole inside one
      // range. A group longer than the window simply straddles — the lane
      // reduction handles that exactly, at the cost of one extra lane slot.
      uint32_t b = even;
      while (b > lo && b < hi && b - even < 64 && plan_group_[b] == plan_group_[b - 1]) {
        ++b;
      }
      if (b >= hi || plan_group_[b] == plan_group_[b - 1]) {
        // No boundary within the window, or the group runs to the shard end
        // (snapping to hi would just empty every later range): keep the even
        // split and let the group straddle.
        b = even;
      }
      if (b < bounds[j - 1]) {
        b = bounds[j - 1];
      }
      bounds[j] = b;
    }

    // Per-range distinct-group lane map: lane j of a range's slice belongs
    // to the j-th distinct group the range touches, in entry order.
    for (uint32_t r = 0; r < k; ++r) {
      const uint32_t rr = u * k + r;
      const uint32_t stamp = rr + 1;
      uint32_t cnt = 0;
      range_group_begin_[rr] = static_cast<uint32_t>(range_group_ids_.size());
      for (uint32_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        const uint32_t g = plan_group_[i];
        if (split_group_stamp_[g] != stamp) {
          split_group_stamp_[g] = stamp;
          split_group_lane_[g] = cnt++;
          range_group_ids_.push_back(g);
        }
        entry_lane_[i] = split_group_lane_[g];
      }
      lane_base_[rr] = next_lane;
      next_lane += (cnt + kLanePad - 1) / kLanePad * kLanePad;
    }

    // Destination classification: a slot deposited into by exactly one range
    // takes direct writes from that range in pass 2 (it owns the line); a
    // slot two or more ranges feed gets every deposit deferred to the
    // serial, range-ordered finalize.
    for (uint32_t r = 0; r < k; ++r) {
      for (uint32_t i = bounds[r]; i < bounds[r + 1]; ++i) {
        const uint32_t d = plan_dst_[i];
        if (split_dst_stamp_[d] != u + 1) {
          split_dst_stamp_[d] = u + 1;
          split_dst_first_[d] = r;
          split_dst_shared_[d] = 0;
        } else if (split_dst_first_[d] != r) {
          split_dst_shared_[d] = 1;
        }
      }
    }
    for (uint32_t i = lo; i < hi; ++i) {
      entry_dst_shared_[i] = split_dst_shared_[plan_dst_[i]];
    }
  }
  range_group_begin_[static_cast<size_t>(nu) * k] =
      static_cast<uint32_t>(range_group_ids_.size());
  lanes_.Reset(next_lane);
}

void TapEngine::BuildTicketTables() {
  // Work items, in shard-index order first: a split shard is an item of its
  // own, weighted by one range's share; a cut parent is one item at its first
  // member, weighted by the sum of its members' weights; every other shard
  // joins the open work unit, a run of consecutive whole shards — hence one
  // contiguous plan range — closed once its weight reaches kUnitWeight. A
  // shard that alone reaches it, or a split or cut shard between two whole
  // ones, closes the open unit first.
  std::vector<WorkItem>& items = work_items_;
  items.clear();
  WorkItem open{0, 0, 0};
  auto close_open = [&] {
    if (open.end > open.begin) {
      items.push_back(open);
    }
    open = WorkItem{0, 0, 0};
  };
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t p = shard_cut_parent_[s];
    if (p != kNoCut) {
      close_open();
      const uint32_t mb = parent_shard_begin_[p];
      if (parent_shards_[mb] == s) {
        uint32_t w = 0;
        for (uint32_t j = mb; j < parent_shard_begin_[p + 1]; ++j) {
          w += shard_weight(parent_shards_[j]);
        }
        items.push_back(WorkItem{w, s, s + 1});
      }
      continue;
    }
    const uint32_t w = shard_weight(s);
    if (split_of_shard_[s] != kNoSplit) {
      // Each range ticket carries about 1/k of its shard, so the item weighs
      // one range: a cut parent heavier than a range then starts before the
      // ranges, not after all of them, where a deep chain beside a split star
      // would set the pass-1 critical path.
      close_open();
      items.push_back(WorkItem{w / split_k_, s, s + 1});
      continue;
    }
    if (w >= kUnitWeight) {
      close_open();
      items.push_back(WorkItem{w, s, s + 1});
      continue;
    }
    if (open.end == open.begin) {
      open.begin = s;
    }
    open.end = s + 1;
    open.weight += w;
    if (open.weight >= kUnitWeight) {
      close_open();
    }
  }
  close_open();
  // Heaviest first: the executor starts the big items immediately so one
  // giant shard never serializes the tail of a batch. Stable, so the order
  // (and everything else) is deterministic.
  std::stable_sort(items.begin(), items.end(),
                   [](const WorkItem& a, const WorkItem& b) { return a.weight > b.weight; });

  // Ticket tables, in that item order. Pass 1 covers every shard — one
  // kWholeShard ticket per work unit, range tickets for split shards, one
  // kCutParent ticket per cut parent; pass 2 is the split shards' ranges.
  // Empty tail ranges (entries < k) get no tickets.
  tickets_pass1_.clear();
  tickets_pass2_.clear();
  const uint32_t k = split_k_;
  for (const WorkItem& item : items) {
    const uint32_t s = item.begin;
    const uint32_t u = split_of_shard_[s];
    if (u == kNoSplit) {
      const uint32_t p = shard_cut_parent_[s];
      tickets_pass1_.push_back(p != kNoCut
                                   ? ShardTicket{s, p, 0, ShardTicketKind::kCutParent}
                                   : ShardTicket{s, 0, 0, ShardTicketKind::kWholeShard, item.end});
      continue;
    }
    const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(u) * (k + 1);
    uint32_t nonempty = 0;
    for (uint32_t r = 0; r < k; ++r) {
      if (bounds[r + 1] > bounds[r]) {
        ++nonempty;
        tickets_pass1_.push_back(ShardTicket{s, u, r, ShardTicketKind::kPass1Range});
        tickets_pass2_.push_back(ShardTicket{s, u, r, ShardTicketKind::kPass2Range});
      }
    }
    stats_[s].ranges = nonempty;
  }
}

void TapEngine::BuildCutPlan() {
  cuts_.clear();
  cut_parents_.clear();
  parent_cut_begin_.clear();
  parent_shards_.clear();
  parent_shard_begin_.clear();
  shard_cut_parent_.assign(num_shards_, kNoCut);
  entry_cut_.clear();
  cut_moved_.clear();
  fused_entries_.clear();
  fused_src_shard_.clear();
  fused_dst_shard_.clear();
  parent_fused_begin_.clear();
  parent_fused_.clear();
  if (!sharding_ || num_shards_ <= 1 || !partitioner_->valid()) {
    return;
  }
  const ShardLayout& layout = partitioner_->layout();
  if (layout.boundary_taps.empty()) {
    return;
  }
  // Boundary entries: live plan entries whose destination landed in a
  // different sub-shard. Only taps the partitioner severed can (an unsevered
  // edge's endpoints share a sub-shard by construction); severed taps that
  // are dangling or label-blocked have no entry and no flow, so they need no
  // cut slot — a parent whose severed taps are all inert runs its members as
  // plain independent shards.
  const auto n = static_cast<uint32_t>(plan_src_.size());
  struct CutSeed {
    ObjectId tap;
    uint32_t entry;
    uint32_t parent;
    uint32_t dst_shard;
  };
  std::vector<CutSeed> seeds;
  std::vector<uint32_t> entry_dst_shard(n, 0);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    for (uint32_t i = shard_plan_begin_[s]; i < shard_plan_begin_[s + 1]; ++i) {
      uint32_t ds = partitioner_->ShardOfReserve(resolved_[i].dst->id());
      if (ds == ShardLayout::kNoShard) {
        ds = s;  // Unreachable: a plan entry's endpoints are a live tap edge.
      }
      entry_dst_shard[i] = ds;
      if (ds != s) {
        seeds.push_back({resolved_[i].tap->id(), i, layout.shard_parent[s], ds});
      }
    }
  }
  if (seeds.empty()) {
    return;
  }
  // (parent, tap id) is the settlement order; seeds arrive grouped by source
  // shard, so sort once here at rebuild.
  std::sort(seeds.begin(), seeds.end(), [](const CutSeed& a, const CutSeed& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.tap < b.tap;
  });
  for (const CutSeed& sd : seeds) {
    if (cut_parents_.empty() || cut_parents_.back() != sd.parent) {
      cut_parents_.push_back(sd.parent);
    }
  }
  const auto np = static_cast<uint32_t>(cut_parents_.size());
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const auto it =
        std::lower_bound(cut_parents_.begin(), cut_parents_.end(), layout.shard_parent[s]);
    if (it != cut_parents_.end() && *it == layout.shard_parent[s]) {
      shard_cut_parent_[s] = static_cast<uint32_t>(it - cut_parents_.begin());
    }
  }
  // Member sub-shards per parent, ascending shard index (the decay order at
  // settlement).
  parent_shard_begin_.assign(np + 1, 0);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (shard_cut_parent_[s] != kNoCut) {
      ++parent_shard_begin_[shard_cut_parent_[s] + 1];
    }
  }
  for (uint32_t p = 0; p < np; ++p) {
    parent_shard_begin_[p + 1] += parent_shard_begin_[p];
  }
  parent_shards_.resize(parent_shard_begin_[np]);
  {
    std::vector<uint32_t> cursor(parent_shard_begin_.begin(), parent_shard_begin_.end() - 1);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (shard_cut_parent_[s] != kNoCut) {
        parent_shards_[cursor[shard_cut_parent_[s]]++] = s;
      }
    }
  }
  entry_cut_.assign(n, kNoCut);
  cut_moved_.assign(seeds.size(), 0);
  parent_cut_begin_.assign(np + 1, 0);
  cuts_.reserve(seeds.size());
  uint32_t dense_parent = 0;
  for (const CutSeed& sd : seeds) {
    while (cut_parents_[dense_parent] != sd.parent) {
      ++dense_parent;
    }
    BoundaryCut cut;
    cut.entry = sd.entry;
    cut.dst_slot = plan_dst_[sd.entry];
    cut.dst_shard = sd.dst_shard;
    // The demand group sourced at the destination, if the destination
    // sources any taps: its constrainedness is what decides, per batch,
    // whether deferring this cut's deposit is provably invisible.
    cut.dst_group = kNoCut;
    for (uint32_t g = shard_group_begin_[sd.dst_shard],
                  ge = g + shard_group_count_[sd.dst_shard];
         g < ge; ++g) {
      if (group_src_slot_[g] == cut.dst_slot) {
        cut.dst_group = g;
        break;
      }
    }
    entry_cut_[sd.entry] = static_cast<uint32_t>(cuts_.size());
    ++parent_cut_begin_[dense_parent + 1];
    cuts_.push_back(cut);
  }
  for (uint32_t p = 0; p < np; ++p) {
    parent_cut_begin_[p + 1] += parent_cut_begin_[p];
  }
  // A cut parent's members share one decay sink — the parent's smallest-id
  // wired reserve — so DecayConfig::to_shard_root routes leakage exactly
  // like the uncut component would.
  for (uint32_t p = 0; p < np; ++p) {
    Reserve* best = nullptr;
    uint32_t best_slot = kNoBankSlot;
    for (uint32_t j = parent_shard_begin_[p]; j < parent_shard_begin_[p + 1]; ++j) {
      const uint32_t s = parent_shards_[j];
      if (shard_sink_[s] != nullptr && (best == nullptr || shard_sink_[s]->id() < best->id())) {
        best = shard_sink_[s];
        best_slot = shard_sink_slot_[s];
      }
    }
    for (uint32_t j = parent_shard_begin_[p]; j < parent_shard_begin_[p + 1]; ++j) {
      shard_sink_[parent_shards_[j]] = best;
      shard_sink_slot_[parent_shards_[j]] = best_slot;
    }
  }
  // Fused-order tables: every member entry of each cut parent in ascending
  // tap-id order with its src/dst sub-shard, so the fallback can replay the
  // uncut engine's serial schedule without touching the kernel at batch time.
  parent_fused_begin_.assign(np + 1, 0);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (shard_cut_parent_[s] != kNoCut) {
      parent_fused_begin_[shard_cut_parent_[s] + 1] +=
          shard_plan_begin_[s + 1] - shard_plan_begin_[s];
    }
  }
  for (uint32_t p = 0; p < np; ++p) {
    parent_fused_begin_[p + 1] += parent_fused_begin_[p];
  }
  fused_entries_.resize(parent_fused_begin_[np]);
  fused_src_shard_.resize(parent_fused_begin_[np]);
  fused_dst_shard_.resize(parent_fused_begin_[np]);
  std::vector<std::tuple<ObjectId, uint32_t, uint32_t>> order;  // (tap, entry, shard)
  for (uint32_t p = 0; p < np; ++p) {
    order.clear();
    for (uint32_t j = parent_shard_begin_[p]; j < parent_shard_begin_[p + 1]; ++j) {
      const uint32_t s = parent_shards_[j];
      for (uint32_t i = shard_plan_begin_[s]; i < shard_plan_begin_[s + 1]; ++i) {
        order.emplace_back(resolved_[i].tap->id(), i, s);
      }
    }
    std::sort(order.begin(), order.end());
    uint32_t w = parent_fused_begin_[p];
    for (const auto& e : order) {
      fused_entries_[w] = std::get<1>(e);
      fused_src_shard_[w] = std::get<2>(e);
      fused_dst_shard_[w] = entry_dst_shard[std::get<1>(e)];
      ++w;
    }
  }
  parent_fused_.assign(np, 0);
}

void TapEngine::EmitPlanRecords() {
  // Rebuild-time, main thread: size one writer ring per pool slot (the caller
  // is slot 0) and dump the plan tables straight into the spill — they scale
  // with the plan, not with any ring's capacity.
  telem_->EnsureWriters(executor_ != nullptr ? static_cast<uint32_t>(executor_->workers()) : 1);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    telem_->EmitSpill(RecordKind::kPlanShard, s, static_cast<uint16_t>(stats_[s].ranges), 0,
                      stats_[s].taps, stats_[s].decay_reserves);
  }
  if (telem_->on(RecordKind::kPlanTap)) {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      for (uint32_t i = shard_plan_begin_[s]; i < shard_plan_begin_[s + 1]; ++i) {
        const ResolvedTap& e = resolved_[i];
        const auto endpoints = static_cast<int64_t>(
            (static_cast<uint64_t>(e.src->id()) & 0xffffffffull) << 32 |
            (static_cast<uint64_t>(e.dst->id()) & 0xffffffffull));
        telem_->EmitSpill(RecordKind::kPlanTap, i, static_cast<uint16_t>(s & 0xffff), 0,
                          static_cast<int64_t>(e.tap->id()), endpoints);
      }
    }
  }
  if (telem_->on(RecordKind::kPlanReserve)) {
    const std::vector<ObjectId>& reserves = kernel_->ObjectsOfType(ObjectType::kReserve);
    for (size_t i = 0; i < reserves.size(); ++i) {
      const Reserve* r = kernel_->LookupTyped<Reserve>(reserves[i]);
      if (r == nullptr || !r->bank_attached()) {
        continue;
      }
      telem_->EmitSpill(RecordKind::kPlanReserve, r->bank_slot(),
                        static_cast<uint16_t>(reserve_shard_[i] & 0xffff), 0,
                        static_cast<int64_t>(reserves[i]), 0);
    }
  }
}

void TapEngine::DepositToSink(Reserve* sink, Quantity amount, TraceRing* ring) {
  // Reserve::Deposit on the bank arrays, minus its reserve-op epoch bump: a
  // leak deposit implies decay flow, so RunBatch's one NoteReserveOp covers
  // it. The sink is attached (every reserve is, while a plan is live), and
  // when it is decay-wired its list is the one the sink's own shard runs.
  const uint32_t slot = sink->bank_slot();
  Quantity* const lvl = rbank_.levels();
  if (DepositRelists(lvl, rbank_.deposited(), rbank_.flags(), slot, amount)) {
    decay_active_[sink->decay_shard()].push_back(slot);
  }
  if (ring != nullptr) {
    ring->Emit(telem_->time_us(), RecordKind::kReserveDeposit, static_cast<uint32_t>(sink->id()),
               0, kReserveOpDecayLeak, amount, lvl[slot]);
  }
}

void TapEngine::RunBatch(Duration dt) {
  if (!dt.IsPositive()) {
    return;
  }
  if (!PlanIsCurrent()) {
    RebuildPlan();
  }
  // Publish the batch-wide constants, then run the tickets — concurrently on
  // the executor when one is attached, serially in ticket order otherwise.
  // Tickets touch disjoint reserves/taps, so scheduling cannot change results.
  batch_dt_s_ = dt.seconds_f();
  // Leak fraction for this interval: 1 - 2^(-dt / half_life). The exp2 is
  // only worth paying when decay will actually run.
  decay_frac_ =
      decay_.enabled ? 1.0 - std::exp2(-dt.seconds_f() / decay_.half_life.seconds_f()) : 0.0;
  // Shard sinks are the partitioner's components; without sharding there is
  // no component structure to route by, so the flag is inert.
  decay_to_root_ = decay_.to_shard_root && sharding_;
  // Cache the record-mask bits for this batch: written here on the main
  // thread, read by workers past the executor's happens-before edge.
  const uint32_t tmask = telem_ != nullptr ? telem_->record_mask() : 0;
  telem_on_ = telem_ != nullptr && telem_->enabled();
  telem_shard_batch_ = (tmask & RecordBit(RecordKind::kShardBatch)) != 0;
  telem_shard_timing_ = (tmask & RecordBit(RecordKind::kShardTiming)) != 0;
  telem_range_timing_ = (tmask & RecordBit(RecordKind::kRangeTiming)) != 0;
  telem_taps_ = (tmask & RecordBit(RecordKind::kTapTransfer)) != 0;
  telem_decay_records_ = (tmask & RecordBit(RecordKind::kReserveDecay)) != 0;
  telem_reserve_ops_ = (tmask & RecordBit(RecordKind::kReserveDeposit)) != 0;
  telem_boundary_ = (tmask & RecordBit(RecordKind::kBoundarySettle)) != 0;
  // Degenerate-dispatch fast path: waking the pool costs two notify/wait
  // handshakes per phase, pure loss unless at least two busy work items can
  // overlap. Count runnable pass-1 tickets (a work unit with a shard that has
  // plan entries or a non-empty decay list; every range and cut parent, which
  // always have entries) and short-circuit at two — a busy fleet exits this
  // scan after a couple of tickets, while a small fleet packed into one unit,
  // a single shard (BM_TapBatchWithDecay-sized) or a lone cut chain runs
  // serially with no executor round-trip at all. Results never depend on the
  // choice.
  bool use_pool = executor_ != nullptr && executor_->workers() > 1;
  if (use_pool) {
    uint32_t busy = 0;
    for (const ShardTicket& t : tickets_pass1_) {
      if (t.kind != ShardTicketKind::kWholeShard) {
        ++busy;
      } else {
        for (uint32_t s = t.shard; s < t.shard_end; ++s) {
          if (stats_[s].taps != 0 || !decay_active_[s].empty()) {
            ++busy;
            break;
          }
        }
      }
      if (busy >= 2) {
        break;
      }
    }
    use_pool = busy >= 2;
  }
  // The one batch pipeline. Phase A: every pass-1 ticket — work units and
  // cut parents run their full batch, split shards run per-range demand
  // passes into private lanes. Only when a shard is split: the serial
  // reduction folds its lanes in range order into the canonical per-group
  // demand and classifies each group; phase B runs its unconstrained entries
  // per range, racing only on range-exclusive state; the serial finalize
  // applies the deferred effects in range order, the constrained tail and
  // the decay slice. The reduction order, not the ticket interleaving,
  // defines every result bit. With nothing split, phase A is the whole batch:
  // the serial steps and the empty pass-2 table are skipped, not run empty.
  Dispatch(tickets_pass1_, use_pool);
  if (!split_shards_.empty()) {
    const auto nu = static_cast<uint32_t>(split_shards_.size());
    for (uint32_t u = 0; u < nu; ++u) {
      ReduceSplitDemand(u);
    }
    Dispatch(tickets_pass2_, use_pool);
    for (uint32_t u = 0; u < nu; ++u) {
      FinalizeSplitShard(u);
    }
  }
  // Deterministic merge, in shard order: engine totals, per-shard stats, and
  // the decay leakage each shard banked for the battery root (a shard with
  // its own sink under decay_to_shard_root settled it in FinishShard).
  // Deferring these deposits here is what keeps the battery's shard
  // race-free — and it exactly matches the unsharded engine, where every tap
  // reads the battery before the decay pass touches it.
  Reserve* battery = battery_cache_;
  TraceRing* const ring = telem_reserve_ops_ ? WorkerRing() : nullptr;
  Quantity tap_flow = 0;
  Quantity decay_flow = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const ShardScratch& sc = scratch_[s];
    tap_flow += sc.tap_flow;
    decay_flow += sc.decay_flow;
    stats_[s].tap_flow += sc.tap_flow;
    stats_[s].decay_flow += sc.decay_flow;
    if (battery != nullptr) {
      if (sc.decay_leak > 0) {
        DepositToSink(battery, sc.decay_leak, ring);
      }
      if (sc.decay_stray > 0) {
        DepositToSink(battery, sc.decay_stray, ring);
      }
    }
  }
  total_tap_flow_ += tap_flow;
  total_decay_flow_ += decay_flow;
  // One frame per batch: drain every worker ring into the spill (we are past
  // the executor's happens-before edge) and stamp the mark.
  if (telem_on_) {
    telem_->FlushFrame();
  }
  // The batch loops write reserve levels through the state-bank arrays, not
  // through Reserve's named mutators, so the scheduler's run plan would not
  // see the movement. A batch that moved tap or decay flow is an out-of-band
  // level mutation and bumps the kernel reserve-op epoch; an all-idle batch
  // leaves plans alive across the boundary. Sink leak deposits are covered
  // too: a leak is part of the decay flow.
  if (tap_flow != 0 || decay_flow != 0) {
    kernel_->NoteReserveOp();
  }
}

void TapEngine::Dispatch(const std::vector<ShardTicket>& tickets, bool use_pool) {
  if (use_pool) {
    executor_->RunTickets(this, tickets.data(), static_cast<uint32_t>(tickets.size()));
    return;
  }
  for (const ShardTicket& t : tickets) {
    RunTicket(t);
  }
}

void TapEngine::RunTicket(const ShardTicket& t) {
  switch (t.kind) {
    case ShardTicketKind::kWholeShard:
      RunUnit(t.shard, t.shard_end);
      break;
    case ShardTicketKind::kPass1Range:
      RunPass1Range(t.slot, t.range);
      break;
    case ShardTicketKind::kPass2Range:
      RunPass2Range(t.slot, t.range);
      break;
    case ShardTicketKind::kCutParent:
      RunCutParent(t.slot);
      break;
  }
}

inline void TapEngine::RunUnit(uint32_t first, uint32_t last) {
  // Per shard, two passes. Pass 1 computes each tap's demand for this batch;
  // pass 2 executes transfers in id (creation) order, giving taps that
  // contend for the same constrained source a proportional share of whatever
  // is available when they flow (e.g. two applications drawing from the
  // shared 14 mW background reserve of Figure 7 each receive ~7 mW instead
  // of the oldest tap winning every batch). Deposits made by earlier taps in
  // the same batch are visible to later ones, so feed taps created before
  // their consumers pipeline within a single batch. Fully deterministic. The
  // unit's shards share nothing, so running them back to back in index
  // order is the whole-shard loop itself.
  const int64_t t0 = telem_shard_timing_ ? NowNs() : 0;
  TraceRing* const ring = telem_on_ ? WorkerRing() : nullptr;
  uint32_t shard = first;  // A unit is never empty.
  do {
    const uint32_t begin = shard_plan_begin_[shard];
    const uint32_t end = shard_plan_begin_[shard + 1];
    Quantity flow = 0;
    // A shard without taps (a decay-only engine, a stray shard) has no
    // passes to run; their setup alone would cost more than its decay
    // slice. Pass 1 is spelled out here rather than called through a
    // per-shard helper: the extra call made a one-tap batch (BM_TapBatch/1)
    // up to 30% slower.
    if (begin < end) {
      std::fill(group_base_ + shard_group_begin_[shard],
                group_base_ + shard_group_begin_[shard + 1], 0.0);
      DemandPass(shard, begin, end, group_base_, plan_group_.data());
      flow = TransferPass<false, false>(shard, begin, end);
    }
    FinishShard(shard, flow, ring);
  } while (++shard < last);
  if (telem_shard_timing_) {
    EmitShardTiming(first, last - first, t0);
  }
}

inline void TapEngine::DemandPass(uint32_t shard, uint32_t begin, uint32_t end,
                                  double* demand, const uint32_t* slot_of) {
  // Everything the two passes touch is a flat array: the dense plan triple
  // (src slot, dst slot, group), the reserve bank, and the padded per-entry
  // arrays rebased through `tb` so this shard's slice is cache-line exclusive.
  const double dt_s = batch_dt_s_;
  const Quantity* const lvl = rbank_.levels();
  const double* const tcarry = tbank_.carries();
  const QuantityRate* const trate = tbank_.rates();
  const double* const tfrac = tbank_.fractions();
  const uint8_t* const tflags = tbank_.flags();
  const uint32_t* const src_slot = plan_src_.data();
  const uint32_t tb = shard_want_begin_[shard] - shard_plan_begin_[shard];
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t ti = tb + i;
    const uint8_t f = tflags[ti];
    if ((f & TapStateBank::kEnabled) == 0) {
      want_base_[ti] = -1.0;  // Wants are never negative, so -1 is a safe skip mark.
      continue;
    }
    double want = tcarry[ti];
    if ((f & TapStateBank::kProportional) != 0) {
      const Quantity level = lvl[src_slot[i]] > 0 ? lvl[src_slot[i]] : 0;
      want += static_cast<double>(level) * tfrac[ti] * dt_s;
    } else {
      want += static_cast<double>(trate[ti]) * dt_s;
    }
    want_base_[ti] = want;
    demand[slot_of[i]] += want;
  }
}

template <bool kConstrainedOnly, bool kParkCuts>
Quantity TapEngine::TransferPass(uint32_t shard, uint32_t begin, uint32_t end) {
  TraceRing* const tap_trace =
      telem_taps_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  double* const tcarry = tbank_.carries();
  Quantity* const ttrans = tbank_.transferred();
  const uint32_t* const src_slot = plan_src_.data();
  const uint32_t* const dst_slot = plan_dst_.data();
  const uint32_t* const group_of = plan_group_.data();
  Quantity* const cut_moved = kParkCuts ? cut_moved_.data() : nullptr;
  std::vector<uint32_t>& active = decay_active_[shard];
  const uint32_t tb = shard_want_begin_[shard] - shard_plan_begin_[shard];
  Quantity flow = 0;
  for (uint32_t i = begin; i < end; ++i) {
    if (kConstrainedOnly && group_fast_[group_of[i]] != 0) {
      continue;
    }
    const uint32_t ti = tb + i;
    const double want = want_base_[ti];
    if (want < 0.0) {
      continue;
    }
    const Quantity moved = Grant(want, group_base_[group_of[i]], lvl[src_slot[i]], tcarry[ti]);
    if (moved <= 0) {
      continue;
    }
    if (kParkCuts && entry_cut_[i] != kNoCut) {
      cut_moved[entry_cut_[i]] = moved;  // The parent's settlement deposits it.
    } else if (DepositRelists(lvl, dep, rflags, dst_slot[i], moved)) {
      active.push_back(dst_slot[i]);
    }
    ttrans[ti] += moved;
    flow += moved;
    if (tap_trace != nullptr) {
      tap_trace->Emit(telem_->time_us(), RecordKind::kTapTransfer, i,
                      static_cast<uint16_t>(shard & 0xffff), 0, moved, 0);
    }
  }
  return flow;
}

bool TapEngine::GroupFits(uint32_t group, const Quantity* lvl) const {
  // Within a shard only the group itself drains its source, and deposits only
  // raise levels, so a total within the opening level holds for the whole
  // pass. The margin absorbs the reduction's FP rounding and the
  // int64->double conversion of the level; misclassifying toward
  // "constrained" only routes entries to the ordered path — it can never
  // break conservation or determinism.
  const double total = group_base_[group];
  const Quantity level = lvl[group_src_slot_[group]];
  return total == 0.0 || (level > 0 && total <= static_cast<double>(level) * (1.0 - 1e-6));
}

inline void TapEngine::FinishShard(uint32_t shard, Quantity tap_flow, TraceRing* ring) {
  const DecayResult dr = decay_.enabled ? DecayShard(shard) : DecayResult{};
  // In-ticket sink settlement (decay_to_shard_root): the sink is the
  // smallest-id energy reserve of this shard (of its cut parent, for a cut
  // member), only this ticket touches it during the batch, and it never
  // decays itself, so depositing here, right after the shard's decay slice,
  // is exactly the merge's deposit moved earlier — integer adds in the same
  // order per sink (a cut parent's members finish in ascending shard order).
  Reserve* const sink = decay_to_root_ && dr.leak > 0 ? shard_sink_[shard] : nullptr;
  scratch_[shard] = ShardScratch{tap_flow, sink != nullptr ? 0 : dr.leak, dr.flow, dr.stray};
  if (ring != nullptr && telem_shard_batch_) {
    ring->Emit(telem_->time_us(), RecordKind::kShardBatch, shard, 0, 0, tap_flow, dr.flow);
  }
  if (sink != nullptr) {
    DepositToSink(sink, dr.leak, telem_reserve_ops_ ? ring : nullptr);
  }
}

TraceRing* TapEngine::WorkerRing() const {
  // This worker's own ring (single-writer); null when the domain has no ring
  // for the slot — then the records are skipped, never misfiled.
  return telem_on_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
}

void TapEngine::EmitShardTiming(uint32_t first, uint32_t shards, int64_t t0) {
  const uint32_t slot = ShardExecutor::current_worker_slot();
  if (TraceRing* ring = telem_->ring(slot)) {
    ring->Emit(telem_->time_us(), RecordKind::kShardTiming, first, static_cast<uint16_t>(slot), 0,
               NowNs() - t0, shards);
  }
}

void TapEngine::EmitRangeTiming(uint32_t shard, uint32_t range, uint8_t pass, int64_t t0) {
  if (!telem_range_timing_) {
    return;
  }
  const uint32_t slot = ShardExecutor::current_worker_slot();
  if (TraceRing* ring = telem_->ring(slot)) {
    ring->Emit(telem_->time_us(), RecordKind::kRangeTiming, shard,
               static_cast<uint16_t>(slot << 8 | (range & 0xff)), pass, NowNs() - t0, 0);
  }
}

void TapEngine::RunPass1Range(uint32_t split, uint32_t range) {
  // Pass 1 over one contiguous plan-entry range, demand accumulated into the
  // range's private lane slice instead of the shard's group_base_. Reads
  // reserve levels (frozen until pass 2) and tap state, writes only this
  // range's slice of want_/lanes — any interleaving with other tickets is
  // race-free.
  const int64_t t0 = telem_range_timing_ ? NowNs() : 0;
  const uint32_t shard = split_shards_[split];
  const uint32_t rr = split * split_k_ + range;
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  double* const lane = lanes_.demand() + lane_base_[rr];
  std::fill(lane, lane + (range_group_begin_[rr + 1] - range_group_begin_[rr]), 0.0);
  DemandPass(shard, bounds[range], bounds[range + 1], lane, entry_lane_.data());
  EmitRangeTiming(shard, range, 1, t0);
}

void TapEngine::ReduceSplitDemand(uint32_t split) {
  const uint32_t shard = split_shards_[split];
  const uint32_t gb = shard_group_begin_[shard];
  const uint32_t gcount = shard_group_count_[shard];
  std::fill(group_base_ + gb, group_base_ + gb + gcount, 0.0);
  // Range order IS the reduction order: each group's total is the sum of its
  // lane contributions in ascending range index — a fixed function of the
  // plan, independent of worker count and of which worker ran which range.
  // This is the one place straddling groups' floating-point association is
  // decided.
  for (uint32_t r = 0; r < split_k_; ++r) {
    const uint32_t rr = split * split_k_ + r;
    const double* lane = lanes_.demand() + lane_base_[rr];
    const uint32_t cb = range_group_begin_[rr];
    const uint32_t ce = range_group_begin_[rr + 1];
    for (uint32_t j = cb; j < ce; ++j) {
      group_base_[range_group_ids_[j]] += lane[j - cb];
    }
  }
  // Classification: a group that provably fits its source's opening level
  // gets scale == 1 and no clamp for every entry regardless of execution
  // order, so its entries are exactly parallelizable in pass 2.
  const Quantity* const lvl = rbank_.levels();
  uint32_t slow = 0;
  for (uint32_t g = gb; g < gb + gcount; ++g) {
    const bool fast = GroupFits(g, lvl);
    group_fast_[g] = fast ? 1 : 0;
    if (!fast) {
      slow += group_size_[g];
    }
  }
  split_slow_entries_[split] = slow;
}

void TapEngine::RunPass2Range(uint32_t split, uint32_t range) {
  // Pass 2 over one range, unconstrained (scale == 1) entries only: granted
  // equals want, the move is the whole part, and the source clamp provably
  // never fires, so the transfer needs no source read at all. Source
  // outflows accumulate in the range's integer lane; deposits go directly to
  // destinations only this range feeds, and are deferred otherwise.
  const int64_t t0 = telem_range_timing_ ? NowNs() : 0;
  TraceRing* const tap_trace =
      telem_taps_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  const uint32_t shard = split_shards_[split];
  const uint32_t rr = split * split_k_ + range;
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  const uint32_t begin = bounds[range];
  const uint32_t end = bounds[range + 1];
  RangeScratch& rs = range_scratch_[rr];
  rs = RangeScratch{};
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  double* const tcarry = tbank_.carries();
  Quantity* const ttrans = tbank_.transferred();
  const uint32_t* const dst_slot = plan_dst_.data();
  const uint32_t* const group_of = plan_group_.data();
  Quantity* const lane_out = lanes_.outflow() + lane_base_[rr];
  const uint32_t lane_cnt = range_group_begin_[rr + 1] - range_group_begin_[rr];
  std::fill(lane_out, lane_out + lane_cnt, Quantity{0});
  const uint32_t tb = shard_want_begin_[shard] - shard_plan_begin_[shard];
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t ti = tb + i;
    const double want = want_base_[ti];
    if (want < 0.0 || group_fast_[group_of[i]] == 0) {
      continue;  // Disabled, or constrained: the ordered finalize runs it.
    }
    const auto whole = static_cast<Quantity>(want);
    tcarry[ti] = want - static_cast<double>(whole);
    if (whole <= 0) {
      continue;
    }
    lane_out[entry_lane_[i]] += whole;
    const uint32_t d = dst_slot[i];
    if (entry_dst_shared_[i] != 0) {
      const uint32_t di = begin + rs.n_deferred++;
      deferred_slot_[di] = d;
      deferred_amt_[di] = whole;
    } else if (DepositRelists(lvl, dep, rflags, d, whole)) {
      // This range is the slot's only writer this phase (its flag byte
      // included), so the deposit and its flip test run directly; the
      // re-add itself is deferred because the shard's skip-list is shared
      // across ranges.
      pending_slot_[begin + rs.n_pending++] = d;
    }
    ttrans[ti] += whole;
    rs.tap_flow += whole;
    if (tap_trace != nullptr) {
      tap_trace->Emit(telem_->time_us(), RecordKind::kTapTransfer, i,
                      static_cast<uint16_t>(shard & 0xffff), 0, whole, 0);
    }
  }
  EmitRangeTiming(shard, range, 2, t0);
}

void TapEngine::FinalizeSplitShard(uint32_t split) {
  const uint32_t shard = split_shards_[split];
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  const uint32_t* bounds = range_bounds_.data() + static_cast<size_t>(split) * (split_k_ + 1);
  std::vector<uint32_t>& active = decay_active_[shard];
  Quantity flow = 0;
  // Apply every effect pass 2 deferred, walking ranges in ascending index —
  // the same fixed order as the demand reduction. Integer deposits and
  // outflows are associative, so the totals are exact; the order pins down
  // the observable side channels (decay-list append sequence, the
  // empty -> non-empty flip tests) deterministically.
  for (uint32_t r = 0; r < split_k_; ++r) {
    const uint32_t rr = split * split_k_ + r;
    const RangeScratch& rs = range_scratch_[rr];
    flow += rs.tap_flow;
    const uint32_t base = bounds[r];
    for (uint32_t j = 0; j < rs.n_deferred; ++j) {
      const uint32_t d = deferred_slot_[base + j];
      if (DepositRelists(lvl, dep, rflags, d, deferred_amt_[base + j])) {
        active.push_back(d);
      }
    }
    for (uint32_t j = 0; j < rs.n_pending; ++j) {
      active.push_back(pending_slot_[base + j]);
    }
    // Source outflows: the group's opening level provably covers the whole
    // group's demand (that is what made these entries unconstrained), so
    // per-range subtraction can never undershoot zero.
    const Quantity* lane_out = lanes_.outflow() + lane_base_[rr];
    const uint32_t cb = range_group_begin_[rr];
    const uint32_t ce = range_group_begin_[rr + 1];
    for (uint32_t j = cb; j < ce; ++j) {
      const Quantity out = lane_out[j - cb];
      if (out != 0) {
        lvl[group_src_slot_[range_group_ids_[j]]] -= out;
      }
    }
  }
  // The constrained tail, in plan (tap-id) order with the whole-shard pass 2
  // — running demand decrement, proportional scale, source clamp — against
  // the range-order-reduced group totals. Skipped entirely when the
  // classification found every group unconstrained (the common giant-fan-out
  // case), keeping the serial section O(ranges + groups).
  if (split_slow_entries_[split] > 0) {
    flow += TransferPass<true, false>(shard, bounds[0], bounds[split_k_]);
  }
  // Split shards' per-range work is covered by kRangeTiming; the batch record
  // itself is written here, on the (serial) finalize thread.
  FinishShard(shard, flow, WorkerRing());
}

void TapEngine::RunCutParent(uint32_t parent) {
  // One cut component, start to finish: the uncut engine's batch for it,
  // step by step, with every member a sub-shard of its own slices. Members
  // never range-split, so each demand pass is the whole-shard one.
  const int64_t t0 = telem_shard_timing_ ? NowNs() : 0;
  TraceRing* const ring = WorkerRing();
  const uint32_t* const members = parent_shards_.data() + parent_shard_begin_[parent];
  const uint32_t nm = parent_shard_begin_[parent + 1] - parent_shard_begin_[parent];
  for (uint32_t j = 0; j < nm; ++j) {
    const uint32_t s = members[j];
    std::fill(group_base_ + shard_group_begin_[s], group_base_ + shard_group_begin_[s + 1], 0.0);
    DemandPass(s, shard_plan_begin_[s], shard_plan_begin_[s + 1], group_base_, plan_group_.data());
  }
  // A boundary deposit can be deferred past the members' pass 2 iff nothing
  // in the destination's sub-shard could observe the destination's level
  // during it — and the only pass-2 observer of a level is the demand group
  // sourced at it (its proportional scale and its clamp). GroupFits — total
  // demand provably within the opening level — proves scale == 1 and no
  // clamp no matter when the deposit lands, so deferral is invisible. Any
  // unsafe cut makes the whole parent replay its pass 2 serially in tap-id
  // order, the uncut engine's exact schedule.
  Quantity* const lvl = rbank_.levels();
  const uint32_t cb = parent_cut_begin_[parent];
  const uint32_t ce = parent_cut_begin_[parent + 1];
  uint8_t fused = 0;
  for (uint32_t c = cb; c < ce; ++c) {
    const uint32_t g = cuts_[c].dst_group;
    // kNoCut: the destination sources no taps, so deferral is invisible.
    if (g != kNoCut && !GroupFits(g, lvl)) {
      fused = 1;
      break;
    }
  }
  parent_fused_[parent] = fused;
  Quantity settled = 0;
  uint32_t applied = 0;
  if (fused != 0) {
    for (uint32_t j = 0; j < nm; ++j) {
      scratch_[members[j]].tap_flow = 0;
    }
    RunFusedParent(parent, &settled, &applied);
  } else {
    // Each member's pass 2 with its boundary moves parked, then the parked
    // moves deposited in fixed cut order (parent, tap id): a fixed function
    // of the plan, like the split reduction.
    Quantity* const moved = cut_moved_.data();
    std::fill(moved + cb, moved + ce, Quantity{0});
    for (uint32_t j = 0; j < nm; ++j) {
      const uint32_t s = members[j];
      scratch_[s].tap_flow =
          TransferPass<false, true>(s, shard_plan_begin_[s], shard_plan_begin_[s + 1]);
    }
    Quantity* const dep = rbank_.deposited();
    uint8_t* const rflags = rbank_.flags();
    for (uint32_t c = cb; c < ce; ++c) {
      const BoundaryCut& cut = cuts_[c];
      const Quantity m = moved[c];
      if (m <= 0) {
        continue;
      }
      if (DepositRelists(lvl, dep, rflags, cut.dst_slot, m)) {
        decay_active_[cut.dst_shard].push_back(cut.dst_slot);
      }
      settled += m;
      ++applied;
    }
  }
  // Member decay after the settlement, matching the uncut engine where a
  // component's decay sees every tap deposit of the batch.
  for (uint32_t j = 0; j < nm; ++j) {
    FinishShard(members[j], scratch_[members[j]].tap_flow, ring);
  }
  if (telem_shard_timing_) {
    EmitShardTiming(members[0], nm, t0);
  }
  if (telem_boundary_ && ring != nullptr) {
    ring->Emit(telem_->time_us(), RecordKind::kBoundarySettle, cut_parents_[parent],
               static_cast<uint16_t>(nm), fused != 0 ? kBoundarySettleFused : 0, settled, applied);
  }
}

void TapEngine::RunFusedParent(uint32_t parent, Quantity* settled, uint32_t* applied) {
  // The uncut engine's exact pass 2 for one parent component: every member
  // entry in ascending tap-id order, direct deposits, running group-demand
  // decrements. The parent's group totals are untouched (none of its
  // members' transfer passes ran), so proportional shares under a
  // constrained cut destination come out bit-identical to the uncut engine.
  TraceRing* const tap_trace =
      telem_taps_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  Quantity* const lvl = rbank_.levels();
  Quantity* const dep = rbank_.deposited();
  uint8_t* const rflags = rbank_.flags();
  double* const tcarry = tbank_.carries();
  Quantity* const ttrans = tbank_.transferred();
  const uint32_t* const src_slot = plan_src_.data();
  const uint32_t* const dst_slot = plan_dst_.data();
  const uint32_t* const group_of = plan_group_.data();
  for (uint32_t j = parent_fused_begin_[parent]; j < parent_fused_begin_[parent + 1]; ++j) {
    const uint32_t i = fused_entries_[j];
    const uint32_t s = fused_src_shard_[j];
    const uint32_t ti = shard_want_begin_[s] + (i - shard_plan_begin_[s]);
    const double want = want_base_[ti];
    if (want < 0.0) {
      continue;
    }
    const Quantity moved = Grant(want, group_base_[group_of[i]], lvl[src_slot[i]], tcarry[ti]);
    if (moved <= 0) {
      continue;
    }
    if (DepositRelists(lvl, dep, rflags, dst_slot[i], moved)) {
      decay_active_[fused_dst_shard_[j]].push_back(dst_slot[i]);
    }
    ttrans[ti] += moved;
    scratch_[s].tap_flow += moved;
    if (entry_cut_[i] != kNoCut) {
      *settled += moved;
      ++*applied;
    }
    if (tap_trace != nullptr) {
      tap_trace->Emit(telem_->time_us(), RecordKind::kTapTransfer, i,
                      static_cast<uint16_t>(s & 0xffff), 0, moved, 0);
    }
  }
}

TapEngine::DecayResult TapEngine::DecayShard(uint32_t shard) {
  // Leak fraction for this interval: 1 - 2^(-dt / half_life). Only the
  // skip-list members are visited; a member found empty or exempt is pruned
  // (swap-erase — per-reserve decay is order-independent) and re-added by
  // OnReserveDecayable when it becomes decayable again.
  const double frac = decay_frac_;
  TraceRing* const decay_trace =
      telem_decay_records_ ? telem_->ring(ShardExecutor::current_worker_slot()) : nullptr;
  Quantity* const lvl = rbank_.levels();
  double* const carry = rbank_.carries();
  uint8_t* const flags = rbank_.flags();
  // The shard root absorbs leakage when to_shard_root is on; like the battery
  // root it does not leak itself, so it stays on the list but is skipped.
  const bool to_root = decay_to_root_;
  const uint32_t sink_slot = to_root ? shard_sink_slot_[shard] : kNoBankSlot;
  std::vector<uint32_t>& active = decay_active_[shard];
  Quantity shard_decay = 0;
  Quantity stray_decay = 0;
  for (size_t i = 0; i < active.size();) {
    const uint32_t s = active[i];
    if (s == sink_slot) {
      ++i;
      continue;
    }
    const Quantity level = lvl[s];
    if ((flags[s] & ReserveStateBank::kDecayExempt) != 0 || level <= 0) {
      flags[s] &= static_cast<uint8_t>(~ReserveStateBank::kInDecayList);
      active[i] = active.back();
      active.pop_back();
      continue;
    }
    double want = carry[s] + static_cast<double>(level) * frac;
    auto whole = static_cast<Quantity>(want);
    carry[s] = want - static_cast<double>(whole);
    if (whole > 0) {
      const Quantity take = level < whole ? level : whole;
      lvl[s] = level - take;
      shard_decay += take;
      // Strays have no component; their leakage belongs to the battery root
      // even when the shard's own leakage goes to the shard sink.
      if (to_root && (flags[s] & ReserveStateBank::kStrayShard) != 0) {
        stray_decay += take;
      }
      if (decay_trace != nullptr) {
        decay_trace->Emit(telem_->time_us(), RecordKind::kReserveDecay, s, 0, 0, take, 0);
      }
    }
    ++i;
  }
  return DecayResult{shard_decay, shard_decay - stray_decay, stray_decay};
}

void TapEngine::OnReserveDecayable(Reserve* r) {
  if (!r->bank_attached() || r->in_decay_list()) {
    return;  // No plan live; the next rebuild re-seeds the lists anyway.
  }
  r->set_in_decay_list(true);
  decay_active_[r->decay_shard()].push_back(r->bank_slot());
}

std::vector<ObjectId> TapEngine::TapsFromSource(ObjectId reserve) const {
  std::vector<ObjectId> out;
  for (ObjectId id : taps_) {
    const Tap* tap = kernel_->LookupTyped<Tap>(id);
    if (tap != nullptr && tap->source() == reserve) {
      out.push_back(id);
    }
  }
  return out;
}

void TapEngine::OnObjectDeleted(ObjectId id, ObjectType type) {
  if (type == ObjectType::kTap) {
    auto it = std::lower_bound(taps_.begin(), taps_.end(), id);
    if (it != taps_.end() && *it == id) {
      taps_.erase(it);
    }
  }
  // The kernel bumps its mutation epoch on every delete; drop the plan
  // eagerly rather than risk a stale read before the next epoch check. The
  // bank stays live for the surviving attached objects until the rebuild
  // writes it back (dead slots are skipped via their stale handles).
  plan_valid_ = false;
}

}  // namespace cinder
