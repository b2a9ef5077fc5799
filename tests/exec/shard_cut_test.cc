// The articulation-cut correctness bar. The contract under test is the
// strongest one the engine makes: with component cutting enabled, results are
// bit-identical to the *uncut* engine — the plain unsharded tap-id-order
// batch — at every worker count, because a severed boundary tap's deposit is
// either provably invisible to its destination's batch (deferred into a lane
// and applied in fixed cut order at settlement) or the whole parent falls
// back to a fused serial pass 2 that replays the uncut schedule exactly.
//
// The graphs are the cut machinery's adversaries: deep ladder chains (the
// topology the range split cannot parallelize), constrained chains where
// every cut destination forces the fused fallback, hub-and-chain fleets
// where cuts and range splits coexist, mid-run churn that moves the cut
// layout, and shard-root decay routing across unified parent sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/tap_engine.h"
#include "src/exec/shard_executor.h"
#include "src/exec/shard_partitioner.h"
#include "src/telemetry/trace_domain.h"

namespace cinder {
namespace {

// One kernel + engine with an optional executor and a cut threshold. The
// graph-building helpers are deterministic, so two rigs fed the same calls
// hold object-for-object identical state.
struct Rig {
  Kernel kernel;
  std::unique_ptr<TapEngine> engine;
  ObjectId battery = kInvalidObjectId;

  explicit Rig(ShardExecutor* executor = nullptr, bool sharded = false,
               uint32_t cut_threshold = 0, uint32_t split_min = 0,
               uint32_t split_ranges = 8) {
    Reserve* b = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "battery");
    b->set_decay_exempt(true);
    b->Deposit(ToQuantity(Energy::Joules(50000.0)));
    battery = b->id();
    engine = std::make_unique<TapEngine>(&kernel, battery);
    engine->decay().enabled = true;
    engine->decay().half_life = Duration::Seconds(30);
    engine->split().min_entries = split_min;
    engine->split().ranges = split_ranges;
    engine->set_cut_threshold(cut_threshold);
    if (sharded) {
      engine->EnableSharding(executor);
    }
  }

  Reserve* NewReserve(const std::string& name) {
    return kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), name);
  }
  Tap* NewTap(ObjectId src, ObjectId dst, const std::string& name) {
    Tap* t = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), name, src, dst);
    EXPECT_TRUE(engine->Register(t->id()));
    return t;
  }

  // A deep ladder: head -> n0 -> n1 -> ... Charged chains pre-fund every node
  // so every demand group (cut destinations included) stays provably
  // unconstrained and the lane path runs; uncharged chains leave everything
  // but the head empty with rates growing downstream, so every node demands
  // more than it receives and every cut destination is constrained from the
  // first batch — the fused-fallback path.
  void BuildChain(int depth, bool charged) {
    Reserve* head = NewReserve("head");
    head->Deposit(ToQuantity(Energy::Joules(4000.0)));
    Reserve* prev = head;
    for (int i = 0; i < depth; ++i) {
      Reserve* n = NewReserve("n" + std::to_string(i));
      if (charged) {
        n->Deposit(ToQuantity(Energy::Joules(3.0 + (i % 7))));
      }
      NewTap(prev->id(), n->id(), "c" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(charged ? 1 + (i * 5) % 17 : 5 + i));
      prev = n;
    }
  }

  // A pure fan-out star: every edge is a bridge, but severing any of them
  // strands a weight-0 leaf, so the partitioner's min-side rule must refuse
  // to shred it — the range split owns this shape.
  void BuildStar(int leaves) {
    Reserve* hub = NewReserve("hub");
    hub->Deposit(ToQuantity(Energy::Joules(8000.0)));
    for (int i = 0; i < leaves; ++i) {
      Reserve* leaf = NewReserve("s" + std::to_string(i));
      NewTap(hub->id(), leaf->id(), "st" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(1 + (i * 3) % 11));
    }
  }

  void RunBatches(int n, Duration dt = Duration::Millis(10)) {
    for (int i = 0; i < n; ++i) {
      engine->RunBatch(dt);
    }
  }

  uint32_t MaxShardTaps() const {
    uint32_t m = 0;
    for (const auto& s : engine->shard_stats()) {
      m = std::max(m, s.taps);
    }
    return m;
  }
};

// Bit-exact: == on the doubles. The claim is identical bits, not closeness.
void ExpectIdenticalState(Rig& want, Rig& got, const std::string& label) {
  SCOPED_TRACE(label);
  const auto& want_reserves = want.kernel.ObjectsOfType(ObjectType::kReserve);
  const auto& got_reserves = got.kernel.ObjectsOfType(ObjectType::kReserve);
  ASSERT_EQ(want_reserves.size(), got_reserves.size());
  for (size_t i = 0; i < want_reserves.size(); ++i) {
    ASSERT_EQ(want_reserves[i], got_reserves[i]);
    const Reserve* rw = want.kernel.LookupTyped<Reserve>(want_reserves[i]);
    const Reserve* rg = got.kernel.LookupTyped<Reserve>(got_reserves[i]);
    EXPECT_EQ(rw->level(), rg->level()) << rw->name();
    EXPECT_EQ(rw->total_deposited(), rg->total_deposited()) << rw->name();
    EXPECT_TRUE(rw->decay_carry() == rg->decay_carry()) << rw->name();
  }
  const auto& want_taps = want.kernel.ObjectsOfType(ObjectType::kTap);
  const auto& got_taps = got.kernel.ObjectsOfType(ObjectType::kTap);
  ASSERT_EQ(want_taps.size(), got_taps.size());
  for (size_t i = 0; i < want_taps.size(); ++i) {
    const Tap* tw = want.kernel.LookupTyped<Tap>(want_taps[i]);
    const Tap* tg = got.kernel.LookupTyped<Tap>(got_taps[i]);
    EXPECT_EQ(tw->total_transferred(), tg->total_transferred()) << tw->name();
    EXPECT_TRUE(tw->carry() == tg->carry()) << tw->name();
  }
  EXPECT_EQ(want.engine->total_tap_flow(), got.engine->total_tap_flow());
  EXPECT_EQ(want.engine->total_decay_flow(), got.engine->total_decay_flow());
}

// The headline claim: a 120-deep charged chain cut at threshold 16 runs its
// sub-shards in parallel, every plan section stays within the bound, every
// settlement takes the lane path (no parent ever fuses), and every worker
// count — serial in-caller included — matches the unsharded engine exactly.
TEST(ShardCutTest, ChainMatchesUncutAtAnyWorkerCount) {
  Rig uncut;
  uncut.BuildChain(120, /*charged=*/true);
  uncut.RunBatches(1500);

  std::vector<std::unique_ptr<ShardExecutor>> execs;
  for (int workers : {0, 1, 2, 4, 8}) {
    ShardExecutor* exec = nullptr;
    if (workers > 0) {
      execs.push_back(std::make_unique<ShardExecutor>(workers));
      exec = execs.back().get();
    }
    Rig cut(exec, /*sharded=*/true, /*cut_threshold=*/16);
    cut.BuildChain(120, /*charged=*/true);
    cut.RunBatches(1500);
    // The cuts must actually have fired, the bound must actually hold, and
    // the lane path must actually have run — a silent fallback (no cuts, or
    // fused every batch) would pass the identity check without testing it.
    EXPECT_GE(cut.engine->boundary_cut_count(), 2u);
    EXPECT_LE(cut.MaxShardTaps(), 16u);
    EXPECT_FALSE(cut.engine->AnyCutParentFused());
    ExpectIdenticalState(uncut, cut, "workers=" + std::to_string(workers));
  }
}

// Constrained chain: nothing downstream of the head holds energy and every
// node demands more than it receives, so every cut destination's group fails
// the unconstrained proof and the parent must replay its pass 2 fused —
// serially, in tap-id order — every batch. Still bit-identical to uncut.
TEST(ShardCutTest, ConstrainedChainFallsBackFusedAndStaysExact) {
  Rig uncut;
  uncut.BuildChain(40, /*charged=*/false);
  uncut.RunBatches(800);

  std::vector<std::unique_ptr<ShardExecutor>> execs;
  for (int workers : {0, 2, 8}) {
    ShardExecutor* exec = nullptr;
    if (workers > 0) {
      execs.push_back(std::make_unique<ShardExecutor>(workers));
      exec = execs.back().get();
    }
    Rig cut(exec, /*sharded=*/true, /*cut_threshold=*/8);
    cut.BuildChain(40, /*charged=*/false);
    cut.RunBatches(800);
    EXPECT_GT(cut.engine->boundary_cut_count(), 0u);
    EXPECT_TRUE(cut.engine->AnyCutParentFused());
    ExpectIdenticalState(uncut, cut, "workers=" + std::to_string(workers));
  }
}

// Cuts and the range split coexist in one fleet: the chain (deep, cuttable)
// is cut into bounded sub-shards while the star (wide, un-cuttable by the
// min-side rule) falls through to the range split. Each mechanism takes
// exactly the component shaped for it, and the fleet still matches uncut.
TEST(ShardCutTest, HubAndChainSplitsTheStarAndCutsTheChain) {
  auto build = [](Rig& r) {
    r.BuildStar(24);
    r.BuildChain(48, /*charged=*/true);
  };
  Rig uncut;
  build(uncut);
  uncut.RunBatches(1000);

  for (int workers : {0, 4}) {
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig cut(exec.get(), /*sharded=*/true, /*cut_threshold=*/16,
            /*split_min=*/20, /*split_ranges=*/4);
    build(cut);
    cut.RunBatches(1000);

    const PartitionStats& stats = cut.engine->partitioner()->stats();
    EXPECT_EQ(stats.components, 2u);
    EXPECT_EQ(stats.largest_edges, 48u);
    EXPECT_EQ(stats.cuts_made, 1u) << "only the chain is cuttable";
    EXPECT_EQ(cut.engine->cut_parent_count(), 1u);
    EXPECT_GE(cut.engine->boundary_cut_count(), 2u);
    // The star stayed whole and went to the range split instead.
    bool star_split = false;
    for (const auto& s : cut.engine->shard_stats()) {
      if (s.ranges > 1) {
        star_split = true;
        EXPECT_EQ(s.taps, 24u);
      } else {
        EXPECT_LE(s.taps, 16u) << "cut members stay within the bound";
      }
    }
    EXPECT_TRUE(star_split);
    ExpectIdenticalState(uncut, cut, "workers=" + std::to_string(workers));
  }
}

// The same mixed fleet plus small whole shards and a constrained chain:
// every ticket kind runs in one engine — whole-shard tickets, a range-split
// fan-out, a lane-settled cut chain, and a cut parent that takes the fused
// fallback — and each shard's batch must still end through the one shared
// finish: exactly one kShardBatch per shard per batch, whose sums are the
// engine's tap and decay totals, with decay routed to shard roots.
TEST(ShardCutTest, EveryTicketKindFinishesEachShardOnce) {
  constexpr int kBatches = 300;
  auto build = [](Rig& r) {
    for (int p = 0; p < 3; ++p) {
      Reserve* pool = r.NewReserve("pool" + std::to_string(p));
      pool->Deposit(ToQuantity(Energy::Joules(200.0 + p)));
      for (int i = 0; i < 2; ++i) {
        Reserve* app = r.NewReserve("app" + std::to_string(p) + "_" + std::to_string(i));
        r.NewTap(pool->id(), app->id(), "pt" + std::to_string(p) + "_" + std::to_string(i))
            ->SetConstantPower(Power::Milliwatts(3 + i + p));
      }
    }
    r.BuildStar(24);
    r.BuildChain(48, /*charged=*/true);
    r.BuildChain(40, /*charged=*/false);
  };
  Rig reference(nullptr, /*sharded=*/true);
  reference.engine->decay().to_shard_root = true;
  build(reference);
  reference.RunBatches(kBatches);

  for (int workers : {0, 1, 2, 4, 8}) {
    const std::string label = "workers=" + std::to_string(workers);
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig rig(exec.get(), /*sharded=*/true, /*cut_threshold=*/16,
            /*split_min=*/20, /*split_ranges=*/4);
    rig.engine->decay().to_shard_root = true;
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.spill_grow = true;
    TraceDomain domain(cfg);
    rig.engine->set_telemetry(&domain);
    build(rig);
    rig.RunBatches(kBatches);

    // The input really holds every shape.
    const uint32_t shards = rig.engine->shard_count();
    uint32_t split = 0;
    uint32_t small = 0;
    for (const auto& s : rig.engine->shard_stats()) {
      split += s.ranges > 1 ? 1 : 0;
      small += s.taps == 2 ? 1 : 0;
    }
    EXPECT_EQ(split, 1u) << label;
    EXPECT_EQ(small, 3u) << label;
    EXPECT_EQ(rig.engine->cut_parent_count(), 2u) << label;

    std::vector<uint32_t> seen(shards, 0);
    uint64_t frames = 0;
    uint64_t bad_frames = 0;
    uint64_t settles = 0;
    uint64_t fused_settles = 0;
    int64_t tap_sum = 0;
    int64_t decay_sum = 0;
    domain.ForEachSpilled([&](const TraceRecord& r) {
      switch (static_cast<RecordKind>(r.kind)) {
        case RecordKind::kFrameMark:
          ++frames;
          bad_frames += std::count(seen.begin(), seen.end(), 1u) == shards ? 0 : 1;
          seen.assign(shards, 0);
          break;
        case RecordKind::kShardBatch:
          ASSERT_LT(r.actor, shards);
          ++seen[r.actor];
          tap_sum += r.v0;
          decay_sum += r.v1;
          break;
        case RecordKind::kBoundarySettle:
          ++settles;
          fused_settles += (r.flags & kBoundarySettleFused) != 0 ? 1 : 0;
          break;
        default:
          break;
      }
    });
    EXPECT_EQ(frames, static_cast<uint64_t>(kBatches)) << label;
    EXPECT_EQ(bad_frames, 0u) << label << ": a frame without exactly one record per shard";
    EXPECT_EQ(tap_sum, rig.engine->total_tap_flow()) << label;
    EXPECT_EQ(decay_sum, rig.engine->total_decay_flow()) << label;
    EXPECT_GT(decay_sum, 0) << label;
    // One settlement per cut parent per batch: the constrained chain fused
    // every time, the charged chain through its lanes every time.
    EXPECT_EQ(settles, 2u * kBatches) << label;
    EXPECT_EQ(fused_settles, static_cast<uint64_t>(kBatches)) << label;
    ExpectIdenticalState(reference, rig, label);
  }
}

// The work-unit contract. Many 3-tap phones (packed into several units) share
// one engine with a range-split fan-out, a lane-settled cut chain and a
// fused constrained chain, decay routed to shard roots (every shard settles
// its sink inside its own ticket; a cut member's is its parent's shared
// sink). The tables: one kCutParent pass-1 ticket per cut parent, and a
// pass-2 table that holds only the split shard's ranges. Per batch: exactly
// one kShardBatch per shard; one kDispatch per pooled ticket — a work unit,
// a range pass, or a cut parent — and none without a pool; one kShardTiming
// record per unit and per cut parent, whose shard count (v1) is the unit's
// or the parent's member count, so the records cover every non-split shard
// once. Results stay bit-identical to the uncut sharded-serial reference at
// every worker count.
TEST(ShardUnitTest, UnitsRangesAndCutsEachRunEveryShardOnce) {
  constexpr int kBatches = 60;
  constexpr int kPhones = 500;
  auto build = [](Rig& r) {
    for (int p = 0; p < kPhones; ++p) {
      const std::string tag = std::to_string(p);
      Reserve* pool = r.NewReserve("pool" + tag);
      pool->Deposit(ToQuantity(Energy::Joules(20.0 + p % 7)));
      Reserve* fg = r.NewReserve("fg" + tag);
      Reserve* bg = r.NewReserve("bg" + tag);
      r.NewTap(pool->id(), fg->id(), "feed_fg" + tag)
          ->SetConstantPower(Power::Milliwatts(200 + p % 5 * 60));
      r.NewTap(pool->id(), bg->id(), "feed_bg" + tag)->SetProportionalRate(0.002 + 0.0005 * (p % 4));
      r.NewTap(fg->id(), pool->id(), "back" + tag)->SetProportionalRate(0.1);
    }
    r.BuildStar(24);
    r.BuildChain(48, /*charged=*/true);
    r.BuildChain(40, /*charged=*/false);
  };
  Rig reference(nullptr, /*sharded=*/true);
  reference.engine->decay().to_shard_root = true;
  build(reference);
  reference.RunBatches(kBatches);

  for (int workers : {0, 1, 2, 4, 8}) {
    const std::string label = "workers=" + std::to_string(workers);
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig rig(exec.get(), /*sharded=*/true, /*cut_threshold=*/16,
            /*split_min=*/20, /*split_ranges=*/4);
    rig.engine->decay().to_shard_root = true;
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.spill_grow = true;
    TraceDomain domain(cfg);
    rig.engine->set_telemetry(&domain);
    if (exec != nullptr) {
      exec->set_telemetry(&domain);
    }
    build(rig);
    rig.RunBatches(kBatches);
    if (exec != nullptr) {
      exec->set_telemetry(nullptr);
    }

    const TapEngine& engine = *rig.engine;
    const uint32_t shards = engine.shard_count();
    uint32_t split_shards = 0;
    for (const auto& s : engine.shard_stats()) {
      split_shards += s.ranges > 1 ? 1 : 0;
    }
    ASSERT_EQ(split_shards, 1u) << label;
    ASSERT_EQ(engine.cut_parent_count(), 2u) << label;
    uint64_t units = 0;
    uint64_t unit_shards = 0;
    uint64_t pass1_ranges = 0;
    std::vector<uint32_t> cut_tickets(engine.cut_parent_count(), 0);  // By parent.
    std::vector<uint32_t> unit_size(shards, 0);  // By first shard; 0 = no unit starts there.
    std::vector<uint8_t> cut_first(shards, 0);   // A cut parent's ticket starts there.
    for (const ShardTicket& t : engine.pass1_tickets()) {
      ASSERT_LT(t.shard, shards) << label;
      switch (t.kind) {
        case ShardTicketKind::kWholeShard:
          ++units;
          unit_shards += t.shard_end - t.shard;
          unit_size[t.shard] = t.shard_end - t.shard;
          break;
        case ShardTicketKind::kPass1Range:
          ++pass1_ranges;
          break;
        case ShardTicketKind::kCutParent:
          ASSERT_LT(t.slot, cut_tickets.size()) << label;
          ++cut_tickets[t.slot];
          cut_first[t.shard] = 1;
          break;
        default:
          ADD_FAILURE() << label << ": pass-2 kind in the pass-1 table";
      }
    }
    // Exactly one serial ticket per cut parent.
    EXPECT_EQ(std::count(cut_tickets.begin(), cut_tickets.end(), 1u),
              static_cast<std::ptrdiff_t>(cut_tickets.size()))
        << label;
    // Pass 2 is the split star's ranges and nothing else.
    for (const ShardTicket& t : engine.pass2_tickets()) {
      EXPECT_EQ(t.kind, ShardTicketKind::kPass2Range) << label;
    }
    EXPECT_EQ(engine.pass2_tickets().size(), pass1_ranges) << label;
    ASSERT_GE(pass1_ranges, 2u) << label;
    // Every shard is in a unit except the split star and the cut members.
    const uint64_t cut_members = shards - unit_shards - split_shards;
    ASSERT_GE(cut_members, 2u * engine.cut_parent_count()) << label;
    ASSERT_GE(units, 3u) << label << ": the phones should pack into several units";
    ASSERT_LT(units, static_cast<uint64_t>(kPhones) / 10) << label;
    const uint64_t pooled_tickets =  // Per batch, both passes.
        units + 2 * pass1_ranges + engine.cut_parent_count();

    std::vector<uint32_t> seen(shards, 0);
    uint64_t frames = 0;
    uint64_t bad_batch_frames = 0;
    uint64_t bad_dispatch_frames = 0;
    uint64_t bad_timing_frames = 0;
    uint64_t dispatches = 0;
    uint64_t unit_timings = 0;
    uint64_t timed_shards = 0;
    uint64_t cut_timings = 0;
    uint64_t timed_members = 0;
    domain.ForEachSpilled([&](const TraceRecord& r) {
      switch (static_cast<RecordKind>(r.kind)) {
        case RecordKind::kFrameMark:
          ++frames;
          bad_batch_frames += std::count(seen.begin(), seen.end(), 1u) == shards ? 0 : 1;
          bad_dispatch_frames += dispatches == (workers >= 2 ? pooled_tickets : 0) ? 0 : 1;
          bad_timing_frames += unit_timings == units && timed_shards == unit_shards &&
                                       cut_timings == engine.cut_parent_count() &&
                                       timed_members == cut_members
                                   ? 0
                                   : 1;
          seen.assign(shards, 0);
          dispatches = 0;
          unit_timings = 0;
          timed_shards = 0;
          cut_timings = 0;
          timed_members = 0;
          break;
        case RecordKind::kShardBatch:
          ASSERT_LT(r.actor, shards);
          ++seen[r.actor];
          break;
        case RecordKind::kDispatch:
          ++dispatches;
          break;
        case RecordKind::kShardTiming:
          // A unit's record (actor = its first shard) covers its shards; a
          // cut parent's (actor = its first member) covers its members.
          ASSERT_LT(r.actor, shards);
          if (unit_size[r.actor] != 0) {
            ++unit_timings;
            EXPECT_EQ(TimedShards(r), unit_size[r.actor]) << label;
            timed_shards += TimedShards(r);
          } else {
            EXPECT_EQ(cut_first[r.actor], 1u) << label << ": a timing record for no ticket";
            ++cut_timings;
            timed_members += TimedShards(r);
          }
          break;
        default:
          break;
      }
    });
    EXPECT_EQ(domain.dropped_records(), 0u) << label;
    EXPECT_EQ(frames, static_cast<uint64_t>(kBatches)) << label;
    EXPECT_EQ(bad_batch_frames, 0u) << label << ": a frame without one kShardBatch per shard";
    EXPECT_EQ(bad_dispatch_frames, 0u) << label << ": a frame without one kDispatch per ticket";
    EXPECT_EQ(bad_timing_frames, 0u) << label << ": a frame whose timing misses a shard";
    EXPECT_GT(engine.total_decay_flow(), 0) << label;
    ExpectIdenticalState(reference, rig, label);
  }
}

// Mid-run churn: growth past the threshold re-cuts, deletions re-cut again,
// and a disabled boundary tap (no topology change — the cut layout is
// reused) just carries a zero lane. The reference applies the identical
// mutations, and the engines stay in lock-step through every rebuild.
TEST(ShardCutTest, MidRunChurnRecutsAndStaysExact) {
  // Growth hangs a charged side-chain off a mid-chain node: still a ladder,
  // so the recut must keep every sub-shard within the bound (a fan-out here
  // would build an un-shreddable star pocket — a different test's job).
  auto grow = [](Rig& r, int from, int to) {
    const auto& reserves = r.kernel.ObjectsOfType(ObjectType::kReserve);
    ObjectId prev = reserves[12];  // Some mid-chain node, same in both.
    for (int i = from; i < to; ++i) {
      Reserve* n = r.NewReserve("extra" + std::to_string(i));
      n->Deposit(ToQuantity(Energy::Joules(2.0 + (i % 5))));
      r.NewTap(prev, n->id(), "xt" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(1 + i % 5));
      prev = n->id();
    }
  };
  auto shrink = [](Rig& r, int n) {
    const auto& taps = r.kernel.ObjectsOfType(ObjectType::kTap);
    ASSERT_GE(static_cast<int>(taps.size()), n);
    std::vector<ObjectId> doomed(taps.end() - n, taps.end());
    for (ObjectId id : doomed) {
      ASSERT_EQ(r.kernel.Delete(id), Status::kOk);
    }
  };

  ShardExecutor exec(4);
  Rig uncut;
  Rig cut(&exec, /*sharded=*/true, /*cut_threshold=*/16);
  for (Rig* r : {&uncut, &cut}) {
    r->BuildChain(80, /*charged=*/true);
  }
  uncut.RunBatches(400);
  cut.RunBatches(400);
  EXPECT_GE(cut.engine->boundary_cut_count(), 2u);

  grow(uncut, 0, 30);
  grow(cut, 0, 30);
  uncut.RunBatches(400);
  cut.RunBatches(400);
  EXPECT_LE(cut.MaxShardTaps(), 16u);

  shrink(uncut, 20);
  shrink(cut, 20);
  uncut.RunBatches(400);
  cut.RunBatches(400);
  EXPECT_GE(cut.engine->boundary_cut_count(), 2u);

  // Disable one live boundary tap and exempt a mid-chain node from decay:
  // neither bumps the topology epoch, so the cut layout is reused verbatim
  // and the severed tap's lane simply carries zero from here on.
  const auto& boundary = cut.engine->partitioner()->layout().boundary_taps;
  ASSERT_FALSE(boundary.empty());
  const ObjectId severed = boundary.front();
  const ObjectId exempted = cut.kernel.ObjectsOfType(ObjectType::kReserve)[30];
  for (Rig* r : {&uncut, &cut}) {
    Tap* t = r->kernel.LookupTyped<Tap>(severed);
    ASSERT_NE(t, nullptr);
    t->set_enabled(false);
    r->kernel.LookupTyped<Reserve>(exempted)->set_decay_exempt(true);
  }
  uncut.RunBatches(400);
  cut.RunBatches(400);
  ExpectIdenticalState(uncut, cut, "after grow + shrink + disable + exempt");
}

// Shard-root decay routing: every member of a cut parent must leak to the
// *parent's* smallest-id wired reserve (the sink the uncut component would
// have used), not to a per-sub-shard sink. The reference is the uncut
// sharded engine with the same routing flag.
TEST(ShardCutTest, DecayToShardRootRoutesLikeUncut) {
  auto build = [](Rig& r) {
    r.BuildChain(60, /*charged=*/true);
    // A second small component keeps sink resolution honest: each parent
    // routes to its own pool, never to a global minimum.
    Reserve* pool = r.NewReserve("pool2");
    pool->Deposit(ToQuantity(Energy::Joules(300.0)));
    for (int i = 0; i < 4; ++i) {
      Reserve* app = r.NewReserve("app" + std::to_string(i));
      app->Deposit(ToQuantity(Energy::Joules(2.0)));
      r.NewTap(pool->id(), app->id(), "p2t" + std::to_string(i))
          ->SetConstantPower(Power::Milliwatts(2 + i));
    }
  };
  Rig reference(nullptr, /*sharded=*/true, /*cut_threshold=*/0);
  reference.engine->decay().to_shard_root = true;
  build(reference);
  reference.RunBatches(1000);

  for (int workers : {0, 4}) {
    std::unique_ptr<ShardExecutor> exec;
    if (workers > 0) {
      exec = std::make_unique<ShardExecutor>(workers);
    }
    Rig cut(exec.get(), /*sharded=*/true, /*cut_threshold=*/12);
    cut.engine->decay().to_shard_root = true;
    build(cut);
    cut.RunBatches(1000);
    EXPECT_GE(cut.engine->boundary_cut_count(), 2u);
    ExpectIdenticalState(reference, cut, "workers=" + std::to_string(workers));
  }
}

// Cutting off (threshold 0) or a threshold above the component keeps the
// whole-shard path byte-for-byte: no cuts, no cut parents, and the
// unsharded golden holds.
TEST(ShardCutTest, CutsDisabledOrUnderThresholdKeepWholeShardPath) {
  Rig uncut;
  uncut.BuildChain(30, /*charged=*/true);
  uncut.RunBatches(600);

  for (uint32_t threshold : {0u, 64u}) {
    ShardExecutor exec(4);
    Rig off(&exec, /*sharded=*/true, threshold);
    off.BuildChain(30, /*charged=*/true);
    off.RunBatches(600);
    EXPECT_EQ(off.engine->boundary_cut_count(), 0u);
    EXPECT_EQ(off.engine->cut_parent_count(), 0u);
    ExpectIdenticalState(uncut, off, "threshold=" + std::to_string(threshold));
  }
}

}  // namespace
}  // namespace cinder
