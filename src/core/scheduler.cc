#include "src/core/scheduler.h"

#include <algorithm>

#include "src/telemetry/trace_domain.h"

namespace cinder {

EnergyAwareScheduler::EnergyAwareScheduler(Kernel* kernel) : kernel_(kernel) {
  kernel_->AddObserver(this);
}

EnergyAwareScheduler::~EnergyAwareScheduler() { kernel_->RemoveObserver(this); }

void EnergyAwareScheduler::AddThread(ObjectId thread_id) {
  for (ObjectId t : threads_) {
    if (t == thread_id) {
      return;
    }
  }
  threads_.push_back(thread_id);
  cache_valid_ = false;
  // Plan entries store indices and cursor math modulo the old queue size.
  InvalidatePlan();
}

void EnergyAwareScheduler::RefreshCache() {
  thread_cache_.resize(threads_.size());
  energy_cache_.resize(threads_.size());
  for (size_t i = 0; i < threads_.size(); ++i) {
    thread_cache_[i] = kernel_->LookupTyped<Thread>(threads_[i]);
    // Level cells may have moved (bank attach/detach happens only across an
    // epoch bump); mark every entry stale so first use re-resolves. The
    // vectors keep their capacity, so steady state never allocates.
    energy_cache_[i].reserve_epoch = UINT64_MAX;
  }
  last_pick_ = SIZE_MAX;
  cache_epoch_ = kernel_->mutation_epoch();
  cache_valid_ = true;
}

void EnergyAwareScheduler::RefreshThreadEnergy(ThreadEnergy& e, const Thread& t) {
  e.active = kernel_->LookupTyped<Reserve>(t.active_reserve());
  e.active_cell = e.active != nullptr ? e.active->level_cell() : nullptr;
  e.reserves.clear();
  e.cells.clear();
  for (ObjectId rid : t.attached_reserves()) {
    Reserve* r = kernel_->LookupTyped<Reserve>(rid);
    if (r != nullptr) {
      e.reserves.push_back(r);
      e.cells.push_back(r->level_cell());
    }
  }
  e.reserve_epoch = t.reserve_epoch();
}

bool EnergyAwareScheduler::HasEnergy(const Thread& t) const {
  for (ObjectId rid : t.attached_reserves()) {
    const Reserve* r = kernel_->LookupTyped<Reserve>(rid);
    if (r != nullptr && r->level() > 0) {
      return true;
    }
  }
  return false;
}

ObjectId EnergyAwareScheduler::PickNext(SimTime now) {
  static const std::function<bool(ObjectId)> kAll = [](ObjectId) { return true; };
  return PickNext(now, kAll);
}

ObjectId EnergyAwareScheduler::PickNext(SimTime now,
                                        const std::function<bool(ObjectId)>& eligible) {
  // A direct scan moves the cursor and wakes sleepers underneath any live
  // plan; cut it rather than let the two decision paths interleave.
  InvalidatePlan();
  ++plan_stats_.single_step_picks;
  if (threads_.empty()) {
    // An empty run queue is the degenerate idle quantum; emit the actor-0
    // record EmitPick documents so trace consumers see every quantum.
    if (telemetry_ != nullptr) {
      EmitPick(now, kInvalidObjectId, 0);
    }
    return kInvalidObjectId;
  }
  if (!cache_valid_ || cache_epoch_ != kernel_->mutation_epoch()) {
    RefreshCache();
  }
  const size_t n = threads_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (rr_cursor_ + i) % n;
    Thread* t = thread_cache_[idx];
    if (t == nullptr) {
      continue;
    }
    if (t->state() == ThreadState::kSleeping && t->wake_time() <= now) {
      t->Wake();
    }
    if (t->state() != ThreadState::kRunnable) {
      continue;
    }
    if (!eligible(threads_[idx])) {
      continue;
    }
    // Energy check through the cached level cells: one dereference per
    // reserve instead of an id lookup plus an attached-check branch.
    ThreadEnergy& e = energy_cache_[idx];
    if (e.reserve_epoch != t->reserve_epoch()) {
      RefreshThreadEnergy(e, *t);
    }
    bool has_energy = false;
    for (Quantity* cell : e.cells) {
      if (*cell > 0) {
        has_energy = true;
        break;
      }
    }
    if (!has_energy) {
      t->IncrementQuantaDenied();
      continue;
    }
    rr_cursor_ = (idx + 1) % n;
    last_pick_ = idx;
    if (telemetry_ != nullptr) {
      EmitPick(now, threads_[idx], 0);
    }
    return threads_[idx];
  }
  if (telemetry_ != nullptr) {
    EmitPick(now, kInvalidObjectId, 0);
  }
  return kInvalidObjectId;
}

void EnergyAwareScheduler::EmitPick(SimTime now, ObjectId picked, uint8_t flags) {
  if (!telemetry_->on(RecordKind::kSchedPick)) {
    return;
  }
  if (TraceRing* ring = telemetry_->ring(0)) {
    // kInvalidObjectId (0) doubles as the idle marker.
    ring->Emit(now.us(), RecordKind::kSchedPick, static_cast<uint32_t>(picked), 0, flags, 0, 0);
  }
}

void EnergyAwareScheduler::EmitPlanBuild(SimTime now, size_t planned, uint32_t requested,
                                         uint8_t end_reason) {
  if (!telemetry_->on(RecordKind::kSchedPlanBuild)) {
    return;
  }
  if (TraceRing* ring = telemetry_->ring(0)) {
    ring->Emit(now.us(), RecordKind::kSchedPlanBuild, 0, 0, end_reason,
               static_cast<int64_t>(planned), static_cast<int64_t>(requested));
  }
}

void EnergyAwareScheduler::EmitCharge(const Thread& t, Quantity drawn) {
  if (!telemetry_->on(RecordKind::kCpuCharge)) {
    return;
  }
  if (TraceRing* ring = telemetry_->ring(0)) {
    ring->Emit(telemetry_->time_us(), RecordKind::kCpuCharge, static_cast<uint32_t>(t.id()), 0,
               0, drawn, 0);
  }
}

Energy EnergyAwareScheduler::ChargeCpu(Thread& t, Energy cost) {
  Quantity remaining = ToQuantity(cost);
  Quantity drawn = 0;
  // Hot path: the thread PickNext just returned, with a current cache. Bills
  // through the resolved reserve pointers and cached level cells
  // (ConsumeUpToAt) — no id lookups and no per-call bank-attachment branch.
  if (cache_valid_ && cache_epoch_ == kernel_->mutation_epoch() &&
      last_pick_ < thread_cache_.size() && thread_cache_[last_pick_] == &t &&
      energy_cache_[last_pick_].reserve_epoch == t.reserve_epoch()) {
    ThreadEnergy& e = energy_cache_[last_pick_];
    if (e.active != nullptr) {
      const Quantity got = e.active->ConsumeUpToAt(e.active_cell, remaining);
      drawn += got;
      remaining -= got;
    }
    if (remaining > 0) {
      for (size_t i = 0; i < e.reserves.size() && remaining > 0; ++i) {
        if (e.reserves[i] == e.active) {
          continue;
        }
        const Quantity got = e.reserves[i]->ConsumeUpToAt(e.cells[i], remaining);
        drawn += got;
        remaining -= got;
      }
    }
    if (remaining > 0) {
      // Debt overflow (below) is the cold tail; resolve its sink from the
      // cache instead of re-looking ids up.
      Reserve* sink = e.active != nullptr ? e.active
                      : e.reserves.empty() ? nullptr
                                           : e.reserves.front();
      if (sink != nullptr) {
        const bool saved = sink->allow_debt();
        sink->set_allow_debt(true);
        (void)sink->Consume(remaining);
        sink->set_allow_debt(saved);
        drawn += remaining;
        remaining = 0;
      }
    }
    const Energy billed = ToEnergy(drawn);
    t.AddCpuEnergy(billed);
    if (telemetry_ != nullptr) {
      EmitCharge(t, drawn);
    }
    return billed;
  }
  // Cold path (callers outside the pick loop, or a stale cache): identical
  // semantics through the id maps.
  // Active reserve pays first.
  if (Reserve* active = kernel_->LookupTyped<Reserve>(t.active_reserve()); active != nullptr) {
    Quantity got = active->ConsumeUpTo(remaining);
    drawn += got;
    remaining -= got;
  }
  if (remaining > 0) {
    for (ObjectId rid : t.attached_reserves()) {
      if (rid == t.active_reserve()) {
        continue;
      }
      Reserve* r = kernel_->LookupTyped<Reserve>(rid);
      if (r == nullptr) {
        continue;
      }
      Quantity got = r->ConsumeUpTo(remaining);
      drawn += got;
      remaining -= got;
      if (remaining == 0) {
        break;
      }
    }
  }
  if (remaining > 0) {
    // The quantum already ran at full CPU power; the balance lands on a
    // reserve as debt. Debt is bounded by one quantum because the scheduler
    // denies the thread while every reserve is <= 0, so billing stays equal
    // to actual consumption without letting threads run ahead of income.
    Reserve* sink = kernel_->LookupTyped<Reserve>(t.active_reserve());
    if (sink == nullptr) {
      for (ObjectId rid : t.attached_reserves()) {
        sink = kernel_->LookupTyped<Reserve>(rid);
        if (sink != nullptr) {
          break;
        }
      }
    }
    if (sink != nullptr) {
      const bool saved = sink->allow_debt();
      sink->set_allow_debt(true);
      (void)sink->Consume(remaining);
      sink->set_allow_debt(saved);
      drawn += remaining;
      remaining = 0;
    }
  }
  Energy billed = ToEnergy(drawn);
  t.AddCpuEnergy(billed);
  if (telemetry_ != nullptr) {
    EmitCharge(t, drawn);
  }
  return billed;
}

void EnergyAwareScheduler::InvalidatePlan() {
  if (plan_pos_ < plan_.size()) {
    plan_stats_.quanta_discarded += plan_.size() - plan_pos_;
  }
  plan_.clear();
  plan_denied_.clear();
  plan_wakes_.clear();
  plan_pos_ = 0;
}

uint32_t* EnergyAwareScheduler::BoundSlotFor(const Quantity* cell) {
  // Linear probing from the cell's address. Cells are 8-byte slots, mostly
  // consecutive in the reserve bank, so the bits above the alignment spread
  // them evenly over the table.
  const size_t mask = bound_slots_.size() - 1;
  size_t h = (reinterpret_cast<uintptr_t>(cell) >> 3) & mask;
  while (bound_slots_[h] != 0 && plan_bounds_[bound_slots_[h] - 1].cell != cell) {
    h = (h + 1) & mask;
  }
  return &bound_slots_[h];
}

uint32_t EnergyAwareScheduler::BoundIndexFor(Quantity* cell) {
  // Bound indices are handed out in first-request order; the index turns
  // the search for an existing bound into one probe instead of a scan of
  // every bound so far (quadratic in the scanned threads).
  uint32_t* slot = BoundSlotFor(cell);
  if (*slot != 0) {
    return *slot - 1;
  }
  plan_bounds_.push_back(CellBound{cell, *cell, *cell});
  const auto b = static_cast<uint32_t>(plan_bounds_.size());
  if (2 * b <= bound_slots_.size()) {
    *slot = b;
    return b - 1;
  }
  // Past half full: double the table and re-index every bound.
  bound_slots_.assign(bound_slots_.size() * 2, 0);
  for (uint32_t i = 0; i < b; ++i) {
    *BoundSlotFor(plan_bounds_[i].cell) = i + 1;
  }
  return b - 1;
}

size_t EnergyAwareScheduler::BuildPlan(SimTime now, const SchedPlanParams& p) {
  InvalidatePlan();
  if (p.max_quanta == 0 || threads_.empty() || p.cost_hi < p.cost_lo) {
    return 0;
  }
  if (!cache_valid_ || cache_epoch_ != kernel_->mutation_epoch()) {
    RefreshCache();
  }
  const size_t n = threads_.size();
  uint64_t cap = p.max_quanta;
  uint8_t end_reason = kSchedPlanEndHorizon;
  scan_members_.clear();
  plan_bounds_.clear();
  member_bounds_.clear();
  bound_slots_.assign(std::max<size_t>(bound_slots_.size(), 64), 0);

  // Pass 1: classify every thread once. Runnable threads and already-due
  // sleepers join the scan set (in index order, so the circular walk below
  // matches PickNext's); a not-yet-due sleeper instead caps the horizon at
  // the quantum its deadline enters the window — entry k simulates time
  // now + k*quantum, so the plan must stop strictly before the first k with
  // wake_time <= now + k*quantum. Blocked/halted threads cannot change
  // state without a sched-epoch bump, so skipping them is safe.
  for (size_t i = 0; i < n; ++i) {
    Thread* t = thread_cache_[i];
    if (t == nullptr) {
      continue;
    }
    const ThreadState st = t->state();
    bool due = false;
    if (st == ThreadState::kSleeping) {
      if (t->wake_time() <= now) {
        due = true;
      } else {
        const int64_t dt = t->wake_time().us() - now.us();
        const int64_t q = p.quantum.us();
        const uint64_t until =
            q > 0 ? (static_cast<uint64_t>(dt) + static_cast<uint64_t>(q) - 1) /
                        static_cast<uint64_t>(q)
                  : 1;
        if (until < cap) {
          cap = until;
          end_reason = kSchedPlanEndSleeper;
        }
        continue;
      }
    } else if (st != ThreadState::kRunnable) {
      continue;
    }
    ScanMember m;
    m.idx = static_cast<uint32_t>(i);
    m.due_sleeper = due;
    m.eligible = p.eligible == nullptr || (*p.eligible)(threads_[i]);
    ThreadEnergy& e = energy_cache_[i];
    if (e.reserve_epoch != t->reserve_epoch()) {
      RefreshThreadEnergy(e, *t);
    }
    m.bounds_begin = static_cast<uint32_t>(member_bounds_.size());
    for (Quantity* cell : e.cells) {
      member_bounds_.push_back(BoundIndexFor(cell));
    }
    m.bounds_count = static_cast<uint32_t>(member_bounds_.size()) - m.bounds_begin;
    m.active_bound = e.active_cell != nullptr ? BoundIndexFor(e.active_cell) : kNoBound;
    scan_members_.push_back(m);
  }
  const uint32_t baseline_bound = p.baseline_reserve != nullptr && p.baseline_drain > 0
                                      ? BoundIndexFor(p.baseline_reserve->level_cell())
                                      : kNoBound;

  // Pass 2: simulate the quanta. Each quantum replays the PickNext scan
  // order over the scan set from the speculative cursor, records the wake
  // and denied side effects it would have, and requires every decision to be
  // certain under the whole cost bracket: a winner needs some cell lo > 0
  // AND an active reserve whose lo covers cost_hi alone (so billing cannot
  // spill or take debt); a denial needs every cell hi <= 0. Anything in
  // between ends the plan before this quantum.
  const size_t m_count = scan_members_.size();
  uint64_t spec_epoch = kernel_->sched_epoch();
  size_t spec_cursor = rr_cursor_;
  for (uint64_t qn = 0; qn < cap && end_reason != kSchedPlanEndUncertain; ++qn) {
    PlanEntry entry;
    entry.denied_begin = static_cast<uint32_t>(plan_denied_.size());
    entry.wake_begin = static_cast<uint32_t>(plan_wakes_.size());
    entry.sched_epoch = spec_epoch;
    size_t start = 0;
    while (start < m_count && scan_members_[start].idx < spec_cursor) {
      ++start;
    }
    for (size_t step = 0; step < m_count && entry.pick == kNoPick; ++step) {
      ScanMember& m = scan_members_[(start + step) % m_count];
      if (m.due_sleeper && !m.woken) {
        m.woken = true;
        plan_wakes_.push_back(m.idx);
      }
      if (!m.eligible) {
        continue;
      }
      bool lo_any = false;
      bool hi_any = false;
      for (uint32_t b = 0; b < m.bounds_count; ++b) {
        const CellBound& cb = plan_bounds_[member_bounds_[m.bounds_begin + b]];
        lo_any = lo_any || cb.lo > 0;
        hi_any = hi_any || cb.hi > 0;
      }
      if (lo_any) {
        if (m.active_bound == kNoBound || plan_bounds_[m.active_bound].lo < p.cost_hi) {
          end_reason = kSchedPlanEndUncertain;
          break;
        }
        entry.pick = m.idx;
        // Charge the bracket onto the active cell: lo >= cost_hi, so neither
        // trajectory clamps and the interval stays exact.
        CellBound& ab = plan_bounds_[m.active_bound];
        ab.lo -= p.cost_hi;
        ab.hi -= p.cost_lo;
      } else if (!hi_any) {
        plan_denied_.push_back(m.idx);
      } else {
        end_reason = kSchedPlanEndUncertain;
        break;
      }
    }
    if (end_reason == kSchedPlanEndUncertain) {
      // Roll back this quantum's recorded side effects; earlier entries stand.
      plan_denied_.resize(entry.denied_begin);
      plan_wakes_.resize(entry.wake_begin);
      break;
    }
    entry.denied_count = static_cast<uint32_t>(plan_denied_.size()) - entry.denied_begin;
    entry.wake_count = static_cast<uint32_t>(plan_wakes_.size()) - entry.wake_begin;
    if (entry.pick != kNoPick) {
      spec_cursor = (entry.pick + 1) % n;
    }
    spec_epoch += entry.wake_count;
    // The baseline tick drains after the quantum; ConsumeUpTo's update is
    // monotone in the level, so applying it to each endpoint is exact.
    if (baseline_bound != kNoBound) {
      CellBound& bb = plan_bounds_[baseline_bound];
      const Quantity lo_take =
          bb.lo < p.baseline_drain ? (bb.lo < 0 ? 0 : bb.lo) : p.baseline_drain;
      const Quantity hi_take =
          bb.hi < p.baseline_drain ? (bb.hi < 0 ? 0 : bb.hi) : p.baseline_drain;
      bb.lo -= lo_take;
      bb.hi -= hi_take;
    }
    plan_.push_back(entry);
  }
  plan_pos_ = 0;
  plan_mutation_epoch_ = kernel_->mutation_epoch();
  plan_reserve_op_epoch_ = kernel_->reserve_op_epoch();
  ++plan_stats_.plans_built;
  plan_stats_.quanta_planned += plan_.size();
  if (telemetry_ != nullptr) {
    EmitPlanBuild(now, plan_.size(), p.max_quanta, end_reason);
  }
  return plan_.size();
}

bool EnergyAwareScheduler::PlanCurrent() const {
  return plan_pos_ < plan_.size() && cache_valid_ &&
         plan_mutation_epoch_ == kernel_->mutation_epoch() &&
         plan_reserve_op_epoch_ == kernel_->reserve_op_epoch() &&
         plan_[plan_pos_].sched_epoch == kernel_->sched_epoch();
}

bool EnergyAwareScheduler::TryPlannedPick(SimTime now, ObjectId* picked) {
  if (plan_pos_ >= plan_.size()) {
    return false;
  }
  if (!PlanCurrent()) {
    ++plan_stats_.plans_cut;
    InvalidatePlan();
    return false;
  }
  const PlanEntry& e = plan_[plan_pos_];
  // Replay: exactly the side effects the PickNext scan would have had this
  // quantum, via plain array walks. The Wake() calls below bump the kernel
  // sched epoch once each — the next entry's expected epoch pre-counts them.
  for (uint32_t i = 0; i < e.wake_count; ++i) {
    thread_cache_[plan_wakes_[e.wake_begin + i]]->Wake();
  }
  for (uint32_t i = 0; i < e.denied_count; ++i) {
    thread_cache_[plan_denied_[e.denied_begin + i]]->IncrementQuantaDenied();
  }
  ObjectId result = kInvalidObjectId;
  if (e.pick != kNoPick) {
    rr_cursor_ = (e.pick + 1) % threads_.size();
    last_pick_ = e.pick;  // Arms the ChargeCpu cached-cell hot path.
    result = threads_[e.pick];
  }
  ++plan_pos_;
  ++plan_stats_.quanta_replayed;
  if (telemetry_ != nullptr) {
    EmitPick(now, result, kSchedPickPlanned);
  }
  *picked = result;
  return true;
}

void EnergyAwareScheduler::OnObjectDeleted(ObjectId id, ObjectType type) {
  if (type != ObjectType::kThread) {
    return;
  }
  auto it = std::find(threads_.begin(), threads_.end(), id);
  if (it != threads_.end()) {
    size_t idx = static_cast<size_t>(it - threads_.begin());
    threads_.erase(it);
    if (rr_cursor_ > idx) {
      --rr_cursor_;
    }
    if (!threads_.empty()) {
      rr_cursor_ %= threads_.size();
    } else {
      rr_cursor_ = 0;
    }
  }
  // The cached pointers are positional; drop them eagerly on any deletion.
  cache_valid_ = false;
  InvalidatePlan();
}

}  // namespace cinder
