#include "src/exec/shard_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/telemetry/trace_domain.h"

namespace cinder {
namespace {

// A table of whole-shard tickets for shards order[0], order[1], ...
std::vector<ShardTicket> WholeShardTickets(const std::vector<uint32_t>& order) {
  std::vector<ShardTicket> tickets;
  for (uint32_t s : order) {
    tickets.push_back(ShardTicket{s, 0, 0, ShardTicketKind::kWholeShard});
  }
  return tickets;
}

// Whole-shard tickets for shards 0 .. n-1, in index order.
std::vector<ShardTicket> WholeShardTickets(uint32_t n) {
  std::vector<uint32_t> order(n);
  for (uint32_t s = 0; s < n; ++s) {
    order[s] = s;
  }
  return WholeShardTickets(order);
}

void RunAll(ShardExecutor& exec, ShardTask* task, const std::vector<ShardTicket>& tickets) {
  exec.RunTickets(task, tickets.data(), static_cast<uint32_t>(tickets.size()));
}

// Counts how many times each shard's whole-shard ticket ran.
class CountingTask : public ShardTask {
 public:
  explicit CountingTask(uint32_t n) : counts_(n) {}
  void RunTicket(const ShardTicket& t) override {
    counts_[t.shard].fetch_add(1, std::memory_order_relaxed);
  }
  uint32_t count(uint32_t s) const { return counts_[s].load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<uint32_t>> counts_;
};

TEST(ShardExecutorTest, RunsEveryShardExactlyOnce) {
  ShardExecutor exec(4);
  CountingTask task(37);
  RunAll(exec, &task, WholeShardTickets(37));
  for (uint32_t s = 0; s < 37; ++s) {
    EXPECT_EQ(task.count(s), 1u) << "shard " << s;
  }
}

TEST(ShardExecutorTest, SingleWorkerRunsSeriallyInCaller) {
  ShardExecutor exec(1);
  EXPECT_EQ(exec.workers(), 1);
  CountingTask task(8);
  RunAll(exec, &task, WholeShardTickets(8));
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(task.count(s), 1u);
  }
}

TEST(ShardExecutorTest, ZeroShardsIsANoOp) {
  ShardExecutor exec(4);
  CountingTask task(1);
  exec.RunTickets(&task, nullptr, 0);
  EXPECT_EQ(task.count(0), 0u);
}

TEST(ShardExecutorTest, NonPositiveWorkerCountClampsToOne) {
  ShardExecutor exec(0);
  EXPECT_EQ(exec.workers(), 1);
  CountingTask task(3);
  RunAll(exec, &task, WholeShardTickets(3));
  EXPECT_EQ(task.count(2), 1u);
}

TEST(ShardExecutorTest, RepeatedRunsDoNotLeakWorkAcrossBatches) {
  // Back-to-back batches exercise the generation-tagged ticket: a straggler
  // from batch k must never consume a ticket of batch k+1.
  ShardExecutor exec(4);
  CountingTask task(8);
  const std::vector<ShardTicket> tickets = WholeShardTickets(8);
  const int kBatches = 2000;
  for (int i = 0; i < kBatches; ++i) {
    RunAll(exec, &task, tickets);
  }
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(task.count(s), static_cast<uint32_t>(kBatches)) << "shard " << s;
  }
}

// Records the order tickets ran in (serial executor, so the claim order is
// the execution order).
class OrderRecordingTask : public ShardTask {
 public:
  void RunTicket(const ShardTicket& t) override { order_.push_back(t.shard); }
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  std::vector<uint32_t> order_;
};

TEST(ShardExecutorTest, HonorsCallerSuppliedExecutionOrder) {
  ShardExecutor exec(1);
  OrderRecordingTask task;
  const std::vector<uint32_t> order = {3, 0, 2, 1};
  RunAll(exec, &task, WholeShardTickets(order));
  EXPECT_EQ(task.order(), order);
}

TEST(ShardExecutorTest, OrderedRunStillRunsEveryShardExactlyOnceOnAPool) {
  // On a pool, workers claim tickets in table order: each worker's dispatch
  // records (written after its claim, before running the ticket) list a
  // subsequence of the table. The table here is largest-index first, so
  // every worker's shard sequence must strictly decrease within a batch.
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.spill_grow = true;
  TraceDomain domain(cfg);
  domain.EnsureWriters(4);
  ShardExecutor exec(4);
  exec.set_telemetry(&domain);
  CountingTask task(37);
  std::vector<uint32_t> order(37);
  for (uint32_t s = 0; s < 37; ++s) {
    order[s] = 36 - s;  // Largest-index first; any permutation is legal.
  }
  const std::vector<ShardTicket> tickets = WholeShardTickets(order);
  for (int batch = 0; batch < 500; ++batch) {
    RunAll(exec, &task, tickets);
    domain.FlushFrame();
  }
  for (uint32_t s = 0; s < 37; ++s) {
    EXPECT_EQ(task.count(s), 500u) << "shard " << s;
  }
  // Per worker slot, the last shard claimed in the current frame.
  std::vector<int64_t> last(4, -1);
  uint64_t dispatches = 0;
  uint64_t out_of_order = 0;
  domain.ForEachSpilled([&](const TraceRecord& r) {
    if (r.kind == static_cast<uint8_t>(RecordKind::kFrameMark)) {
      last.assign(4, -1);
      return;
    }
    if (r.kind != static_cast<uint8_t>(RecordKind::kDispatch)) {
      return;
    }
    ++dispatches;
    const uint32_t slot = r.aux >> 8;
    ASSERT_LT(slot, 4u);
    if (last[slot] >= 0 && static_cast<int64_t>(r.actor) >= last[slot]) {
      ++out_of_order;
    }
    last[slot] = r.actor;
  });
  EXPECT_EQ(dispatches, 500u * 37u);
  EXPECT_EQ(out_of_order, 0u);
}

TEST(ShardExecutorTest, DomainMayDieRightAfterABatch) {
  // A pool thread can wake late for a batch the others already finished. It
  // must not touch the attached TraceDomain then: the caller may detach and
  // destroy the domain as soon as RunTickets returns. Trivial tickets make
  // such stragglers common; the sanitizer builds report any late access.
  ShardExecutor exec(4);
  CountingTask task(8);
  const std::vector<ShardTicket> tickets = WholeShardTickets(8);
  TelemetryConfig cfg;
  cfg.enabled = true;
  const int kDomains = 2000;
  for (int i = 0; i < kDomains; ++i) {
    auto domain = std::make_unique<TraceDomain>(cfg);
    domain->EnsureWriters(4);
    exec.set_telemetry(domain.get());
    RunAll(exec, &task, tickets);
    exec.set_telemetry(nullptr);
    domain.reset();
  }
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(task.count(s), static_cast<uint32_t>(kDomains)) << "shard " << s;
  }
}

// Tallies tickets by kind: whole-shard tickets count the shard, range
// tickets count (slot, range) cells.
class TicketTask : public ShardTask {
 public:
  TicketTask(uint32_t shards, uint32_t cells) : shards_(shards), cells_(cells) {}
  void RunTicket(const ShardTicket& t) override {
    if (t.kind == ShardTicketKind::kWholeShard) {
      shards_[t.shard].fetch_add(1, std::memory_order_relaxed);
    } else {
      cells_[t.slot * 8 + t.range].fetch_add(1, std::memory_order_relaxed);
    }
  }
  uint32_t shard_count(uint32_t s) const { return shards_[s].load(std::memory_order_relaxed); }
  uint32_t cell_count(uint32_t c) const { return cells_[c].load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<uint32_t>> shards_;
  std::vector<std::atomic<uint32_t>> cells_;
};

TEST(ShardExecutorTest, RunTicketsDispatchesMixedTicketKindsExactlyOnce) {
  // A mixed table — whole-shard tickets interleaved with pass-1 range
  // tickets for two split shards — across many back-to-back batches on a
  // pool, mirroring how the tap engine's phase A dispatches.
  ShardExecutor exec(4);
  std::vector<ShardTicket> tickets;
  tickets.push_back(ShardTicket{0, 0, 0, ShardTicketKind::kWholeShard});
  for (uint32_t r = 0; r < 8; ++r) {
    tickets.push_back(ShardTicket{1, 0, r, ShardTicketKind::kPass1Range});
  }
  tickets.push_back(ShardTicket{2, 0, 0, ShardTicketKind::kWholeShard});
  for (uint32_t r = 0; r < 3; ++r) {
    tickets.push_back(ShardTicket{3, 1, r, ShardTicketKind::kPass2Range});
  }
  TicketTask task(4, 16);
  const int kBatches = 1000;
  for (int i = 0; i < kBatches; ++i) {
    RunAll(exec, &task, tickets);
  }
  EXPECT_EQ(task.shard_count(0), static_cast<uint32_t>(kBatches));
  EXPECT_EQ(task.shard_count(2), static_cast<uint32_t>(kBatches));
  EXPECT_EQ(task.shard_count(1), 0u);
  EXPECT_EQ(task.shard_count(3), 0u);
  for (uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(task.cell_count(r), static_cast<uint32_t>(kBatches)) << "split 0 range " << r;
  }
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(task.cell_count(8 + r), static_cast<uint32_t>(kBatches)) << "split 1 range " << r;
  }
}

// Records the thread each ticket ran on.
class ThreadRecordingTask : public ShardTask {
 public:
  void RunTicket(const ShardTicket&) override { ran_on_ = std::this_thread::get_id(); }
  std::thread::id ran_on() const { return ran_on_; }

 private:
  std::thread::id ran_on_;
};

TEST(ShardExecutorTest, RunTicketsSingleTicketRunsInCaller) {
  ShardExecutor exec(4);
  const ShardTicket one{5, 0, 0, ShardTicketKind::kWholeShard};
  TicketTask task(6, 1);
  exec.RunTickets(&task, &one, 1);
  EXPECT_EQ(task.shard_count(5), 1u);
  ThreadRecordingTask where;
  exec.RunTickets(&where, &one, 1);
  EXPECT_EQ(where.ran_on(), std::this_thread::get_id());
}

TEST(ShardExecutorTest, MoreShardsThanWorkersAndViceVersa) {
  ShardExecutor exec(8);
  CountingTask wide(64);
  RunAll(exec, &wide, WholeShardTickets(64));
  for (uint32_t s = 0; s < 64; ++s) {
    EXPECT_EQ(wide.count(s), 1u);
  }
  CountingTask narrow(2);
  RunAll(exec, &narrow, WholeShardTickets(2));
  EXPECT_EQ(narrow.count(0), 1u);
  EXPECT_EQ(narrow.count(1), 1u);
}

}  // namespace
}  // namespace cinder
