// Streaming sink tests: the TraceSink interface on TraceDomain, the
// FileStreamSink's file-identity and finalization protocol, O(ring) memory
// in streaming mode, sink lifecycle edge cases (mid-run attach, destruction
// with a sink attached, disabled domains), and TraceReader's truncated-file
// handling. The TraceSinkTest suite runs under TSAN in CI (sinks live on
// the flush path, past the executor's happens-before edge).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/syscalls.h"
#include "src/core/tap_engine.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_body.h"
#include "src/telemetry/file_stream_sink.h"
#include "src/telemetry/live_aggregator.h"
#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_reader.h"

namespace cinder {
namespace {

// Counts everything it sees; optionally records the records themselves.
class CountingSink : public TraceSink {
 public:
  void OnAttach(const TraceDomain& domain) override {
    ++attaches;
    first_seen_frame_seq = domain.frames_flushed();
  }
  void OnRecord(const TraceRecord& r) override {
    ++records;
    if (keep) {
      seen.push_back(r);
    }
  }
  void OnFrame(uint64_t seq, const TraceDomain& domain) override {
    (void)domain;
    ++frames;
    last_frame_seq = seq;
  }
  void OnDetach(const TraceDomain& domain) override {
    (void)domain;
    ++detaches;
  }

  bool keep = false;
  std::vector<TraceRecord> seen;
  int attaches = 0;
  int detaches = 0;
  uint64_t records = 0;
  uint64_t frames = 0;
  uint64_t last_frame_seq = 0;
  uint64_t first_seen_frame_seq = 0;
};

TelemetryConfig SmallConfig() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.ring_bytes = 4 * 1024;
  cfg.spill_bytes = 4 * 1024;  // 128 records — tiny, to make drops easy.
  return cfg;
}

std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

std::vector<unsigned char> Slurp(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

void Chop(const std::string& path, size_t keep_bytes) {
  const auto bytes = Slurp(path);
  ASSERT_LE(keep_bytes, bytes.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, keep_bytes, f), keep_bytes);
  std::fclose(f);
}

void EmitBatch(TraceDomain& domain, int count, int64_t base) {
  for (int i = 0; i < count; ++i) {
    domain.ring(0)->Emit(domain.time_us(), RecordKind::kShardBatch, 0, 0, 0, base + i, 1);
  }
  domain.FlushFrame();
}

// -- Routing & lifecycle --------------------------------------------------------

TEST(TraceSinkTest, SinksReceiveRecordsInsteadOfSpillRetention) {
  TraceDomain domain(SmallConfig());
  CountingSink sink;
  domain.AddSink(&sink);
  EXPECT_EQ(domain.sink_count(), 1u);

  EmitBatch(domain, 10, 0);
  // 10 records + 1 frame mark reached the sink; nothing was retained.
  EXPECT_EQ(sink.records, 11u);
  EXPECT_EQ(sink.frames, 1u);
  EXPECT_EQ(domain.spill_size(), 0u);
  EXPECT_EQ(domain.spill_capacity(), 0u);

  domain.RemoveSink(&sink);
  EXPECT_EQ(sink.detaches, 1);
  EXPECT_EQ(domain.sink_count(), 0u);
  // Without sinks the spill retains again.
  EmitBatch(domain, 5, 100);
  EXPECT_EQ(domain.spill_size(), 6u);
  EXPECT_EQ(sink.records, 11u);
}

TEST(TraceSinkTest, RetainWithSinksStreamsAndRetains) {
  TelemetryConfig cfg = SmallConfig();
  cfg.retain_with_sinks = true;
  // Declared before the domain, whose destructor detaches every sink still
  // attached: a sink must outlive the domain it is attached to.
  CountingSink sink;
  TraceDomain domain(cfg);
  domain.AddSink(&sink);
  EmitBatch(domain, 10, 0);
  EXPECT_EQ(sink.records, 11u);
  EXPECT_EQ(domain.spill_size(), 11u);
}

TEST(TraceSinkTest, MidRunAttachStartsFreshEpoch) {
  // Declared before the domain, whose destructor detaches every sink still
  // attached: a sink must outlive the domain it is attached to.
  CountingSink sink;
  sink.keep = true;
  TraceDomain domain(SmallConfig());
  EmitBatch(domain, 4, 0);  // Frame 0, retained (no sinks yet).
  EmitBatch(domain, 4, 10);  // Frame 1.

  domain.AddSink(&sink);
  EXPECT_EQ(sink.attaches, 1);
  EXPECT_EQ(sink.first_seen_frame_seq, 2u);  // Next frame it will see.

  EmitBatch(domain, 3, 20);
  // The sink saw only the post-attach epoch: 3 records + the mark, whose
  // sequence number continues the domain's (2), not a restart.
  ASSERT_EQ(sink.seen.size(), 4u);
  EXPECT_EQ(sink.seen[0].v0, 20);
  EXPECT_EQ(sink.last_frame_seq, 2u);
  EXPECT_EQ(sink.seen.back().kind, static_cast<uint8_t>(RecordKind::kFrameMark));
  EXPECT_EQ(sink.seen.back().v0, 2);
}

TEST(TraceSinkTest, DomainDestructionDetachesAndFlushesPendingRecords) {
  CountingSink sink;
  {
    TraceDomain domain(SmallConfig());
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
    // Leave 3 records undrained in the ring; the destructor must flush them
    // as one final frame before detaching.
    for (int i = 0; i < 3; ++i) {
      domain.ring(0)->Emit(0, RecordKind::kShardBatch, 0, 0, 0, 100 + i, 0);
    }
  }
  EXPECT_EQ(sink.detaches, 1);
  EXPECT_EQ(sink.frames, 2u);
  EXPECT_EQ(sink.records, 5u + 1u + 3u + 1u);
}

TEST(TraceSinkTest, DestructorAddsNoEmptyFrameWhenAlreadyFlushed) {
  CountingSink sink;
  {
    TraceDomain domain(SmallConfig());
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
  }
  EXPECT_EQ(sink.frames, 1u);  // No trailing empty frame.
  EXPECT_EQ(sink.detaches, 1);
}

TEST(TraceSinkTest, SinkDestroyedBeforeItsDomainUnlinksItself) {
  // Declared in the order that used to call OnDetach on a dead sink from
  // ~TraceDomain: the sink dies first, while still attached. It must drop
  // out of the registry without a callback, and the domain must keep
  // flushing (to the surviving sink) and then destroy cleanly.
  TraceDomain domain(SmallConfig());
  CountingSink survivor;
  domain.AddSink(&survivor);
  {
    FileStreamSink file;
    ASSERT_TRUE(file.Open(TempPath("sink_dies_first.bin"), {}));
    CountingSink counting;
    domain.AddSink(&counting);
    domain.AddSink(&file);
    EXPECT_EQ(domain.sink_count(), 3u);
    EmitBatch(domain, 4, 0);
    EXPECT_EQ(counting.records, 5u);
  }
  EXPECT_EQ(domain.sink_count(), 1u);
  EmitBatch(domain, 2, 10);
  EXPECT_EQ(survivor.records, 5u + 3u);
  // The survivor is declared after the domain, so it dies first too, and
  // ~TraceDomain then flushes this pending record with no sink left to call.
  domain.ring(0)->Emit(0, RecordKind::kShardBatch, 0, 0, 0, 99, 0);
}

TEST(TraceSinkTest, SinkMovesBetweenDomains) {
  CountingSink sink;
  TraceDomain first(SmallConfig());
  TraceDomain second(SmallConfig());
  first.AddSink(&sink);
  second.AddSink(&sink);  // Detaches from `first` (OnDetach), then attaches.
  EXPECT_EQ(first.sink_count(), 0u);
  EXPECT_EQ(second.sink_count(), 1u);
  EXPECT_EQ(sink.attaches, 2);
  EXPECT_EQ(sink.detaches, 1);
  first.RemoveSink(&sink);  // Not attached there any more: a no-op.
  EXPECT_EQ(sink.detaches, 1);
  EmitBatch(first, 3, 0);
  EmitBatch(second, 2, 0);
  EXPECT_EQ(sink.records, 3u);
}

TEST(TraceSinkTest, DisabledDomainIgnoresSinksEntirely) {
  TelemetryConfig cfg;
  cfg.enabled = false;
  TraceDomain domain(cfg);
  CountingSink sink;
  domain.AddSink(&sink);
  EXPECT_EQ(domain.sink_count(), 0u);
  EXPECT_EQ(sink.attaches, 0);
  domain.FlushFrame();
  EXPECT_EQ(sink.records, 0u);
  EXPECT_EQ(sink.frames, 0u);
  EXPECT_EQ(domain.spill_capacity(), 0u);
}

TEST(TraceSinkTest, DisabledSimulatorWithStreamPathIsNoOp) {
  const std::string path = TempPath("disabled_stream.bin");
  std::remove(path.c_str());
  SimConfig cfg;
  cfg.telemetry.enabled = false;
  cfg.telemetry.stream_path = path;
  Simulator sim(cfg);
  EXPECT_EQ(sim.stream_sink(), nullptr);
  sim.Run(Duration::Millis(30));
  // No sink, no file, no spill allocation.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) {
    std::fclose(f);
  }
  EXPECT_EQ(sim.telemetry().spill_capacity(), 0u);
}

// -- File identity & O(ring) memory ---------------------------------------------

TEST(TraceSinkTest, StreamedFileIsByteIdenticalToWriteFile) {
  // One run, streamed and retained simultaneously: the incremental file a
  // FileStreamSink produces must equal the post-hoc WriteFile dump of the
  // same records byte for byte (timing records differ across runs, so the
  // comparison must happen within a single run).
  SimConfig cfg;
  cfg.exec.tap_workers = 2;
  cfg.telemetry.enabled = true;
  cfg.telemetry.spill_grow = true;
  cfg.telemetry.retain_with_sinks = true;
  const std::string streamed = TempPath("streamed.bin");
  const std::string posthoc = TempPath("posthoc.bin");
  cfg.telemetry.stream_path = streamed;
  {
    Simulator sim(cfg);
    Kernel& kernel = sim.kernel();
    for (int p = 0; p < 6; ++p) {
      Reserve* pool =
          kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
      pool->Deposit(ToQuantity(Energy::Joules(10.0)));
      Reserve* app = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "app");
      Tap* tap = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "tap",
                                    pool->id(), app->id());
      tap->SetConstantPower(Power::Milliwatts(50 + p));
      ASSERT_TRUE(sim.taps().Register(tap->id()));
    }
    ASSERT_NE(sim.stream_sink(), nullptr);
    sim.Run(Duration::Millis(500));
    sim.telemetry().FlushFrame();
    // Finalize the stream, then dump the retained copy of the same records.
    sim.telemetry().RemoveSink(sim.stream_sink());
    ASSERT_TRUE(sim.telemetry().WriteFile(posthoc));
    EXPECT_EQ(sim.telemetry().dropped_records(), 0u);
  }
  const auto streamed_bytes = Slurp(streamed);
  const auto posthoc_bytes = Slurp(posthoc);
  ASSERT_GT(streamed_bytes.size(), sizeof(TraceFileHeader));
  EXPECT_EQ(streamed_bytes, posthoc_bytes);
  std::remove(streamed.c_str());
  std::remove(posthoc.c_str());
}

TEST(TraceSinkTest, LongStreamingRunKeepsMemoryAtRingScaleWithZeroDrops) {
  // >= 10x the spill capacity worth of records, streamed: the spill must
  // never allocate and nothing may drop.
  TelemetryConfig cfg = SmallConfig();  // Spill capacity: 128 records.
  TraceDomain domain(cfg);
  const std::string path = TempPath("long_stream.bin");
  FileStreamSink sink;
  ASSERT_TRUE(sink.Open(path));
  domain.AddSink(&sink);
  const int kBatches = 200;
  const int kPerBatch = 20;  // 4200 records total, ~33x spill capacity.
  for (int b = 0; b < kBatches; ++b) {
    EmitBatch(domain, kPerBatch, b * 1000);
  }
  EXPECT_EQ(domain.spill_capacity(), 0u);
  EXPECT_EQ(domain.spill_size(), 0u);
  EXPECT_EQ(domain.dropped_records(), 0u);
  domain.RemoveSink(&sink);
  ASSERT_TRUE(sink.ok());

  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_FALSE(reader.truncated());
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.records().size(), static_cast<size_t>(kBatches * (kPerBatch + 1)));
  EXPECT_EQ(reader.aggregate().frames(), static_cast<uint64_t>(kBatches));
  std::remove(path.c_str());
}

TEST(TraceSinkTest, MultipleSinksSeeTheSameStream) {
  // Declared before the domain, whose destructor detaches every sink still
  // attached: a sink must outlive the domain it is attached to.
  CountingSink counter;
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("multi_sink.bin");
  FileStreamSink file_sink;
  ASSERT_TRUE(file_sink.Open(path));
  domain.AddSink(&file_sink);
  domain.AddSink(&counter);
  EmitBatch(domain, 7, 0);
  domain.RemoveSink(&file_sink);
  EXPECT_EQ(counter.records, 8u);
  EXPECT_EQ(file_sink.records_written(), 8u);
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_EQ(reader.records().size(), 8u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, FsyncPolicyStreamsCorrectly) {
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("fsync_stream.bin");
  FileStreamSink sink;
  FileStreamSinkOptions opts;
  opts.fsync_every_frames = 2;
  ASSERT_TRUE(sink.Open(path, opts));
  domain.AddSink(&sink);
  for (int b = 0; b < 5; ++b) {
    EmitBatch(domain, 3, b * 10);
  }
  domain.RemoveSink(&sink);
  ASSERT_TRUE(sink.ok());
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_EQ(reader.aggregate().frames(), 5u);
  EXPECT_TRUE(reader.complete());
  std::remove(path.c_str());
}

// -- Truncated files -------------------------------------------------------------

TEST(TraceSinkTest, UnfinalizedStreamParsesAsTruncatedPrefix) {
  // A "killed" writer: records on disk behind a placeholder header.
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("killed_stream.bin");
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 6, 0);
    EmitBatch(domain, 6, 10);
    domain.RemoveSink(&sink);  // Flushes stdio; also patches the header.
  }
  // Reconstruct the killed-mid-run state: the records as streamed, behind
  // the placeholder header Finish never got to patch.
  auto bytes = Slurp(path);
  ASSERT_GT(bytes.size(), sizeof(TraceFileHeader));
  TraceFileHeader placeholder{};
  std::memcpy(placeholder.magic, kTraceFileMagic, sizeof(placeholder.magic));
  placeholder.record_size = sizeof(TraceRecord);
  placeholder.record_count = 0;
  std::memcpy(bytes.data(), &placeholder, sizeof(placeholder));
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.complete());
  EXPECT_EQ(reader.records().size(), 14u);  // Every whole record on disk.
  EXPECT_EQ(reader.aggregate().frames(), 2u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, ByteChoppedFileParsesWholeRecordsAndFlagsTruncation) {
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("chopped_stream.bin");
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 9, 0);
    domain.RemoveSink(&sink);  // Finalized: header says 10 records.
  }
  const size_t full = Slurp(path).size();
  ASSERT_EQ(full, sizeof(TraceFileHeader) + 10 * sizeof(TraceRecord));

  // Chop mid-record: 4 whole records + 7 stray bytes.
  Chop(path, sizeof(TraceFileHeader) + 4 * sizeof(TraceRecord) + 7);
  TraceReader reader;
  std::string error;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader, &error)) << error;
  EXPECT_TRUE(reader.truncated());
  ASSERT_EQ(reader.records().size(), 4u);
  EXPECT_EQ(reader.records()[3].v0, 3);  // The prefix parsed correctly.

  // Chop inside the header: a clean error, never a crash or misparse.
  Chop(path, sizeof(TraceFileHeader) / 2);
  TraceReader half;
  error.clear();
  EXPECT_FALSE(TraceReader::LoadFile(path, &half, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(TraceSinkTest, EveryChopLengthEitherFailsCleanlyOrFlagsTruncation) {
  // The regression sweep: byte-chop a real streamed file at many lengths;
  // LoadFile must never crash, never misparse, and only report a complete
  // stream at the full length.
  TraceDomain domain(SmallConfig());
  const std::string path = TempPath("chop_sweep.bin");
  std::vector<unsigned char> full_bytes;
  {
    FileStreamSink sink;
    ASSERT_TRUE(sink.Open(path));
    domain.AddSink(&sink);
    EmitBatch(domain, 5, 0);
    domain.RemoveSink(&sink);
    full_bytes = Slurp(path);
  }
  for (size_t keep = 0; keep <= full_bytes.size(); keep += 9) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (keep > 0) {
      ASSERT_EQ(std::fwrite(full_bytes.data(), 1, keep, f), keep);
    }
    std::fclose(f);
    TraceReader reader;
    const bool loaded = TraceReader::LoadFile(path, &reader);
    if (keep < sizeof(TraceFileHeader)) {
      EXPECT_FALSE(loaded) << "chop at " << keep;
    } else if (loaded && keep < full_bytes.size()) {
      EXPECT_TRUE(reader.truncated()) << "chop at " << keep;
    }
  }
  // And the untouched file is complete.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(full_bytes.data(), 1, full_bytes.size(), f), full_bytes.size());
    std::fclose(f);
  }
  TraceReader reader;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reader));
  EXPECT_TRUE(reader.complete());
  std::remove(path.c_str());
}

TEST(TraceSinkTest, CorruptShardIndexIsCountedAndSkippedNeverAllocated) {
  // A real sharded fleet stream opens with the plan dump, so record 0 is a
  // kPlanShard whose actor is shard 0. Flipping any bit of its actor from
  // bit 20 up (bits 6 and 7 of byte 59 in the file are bits 30 and 31) once
  // made both readers resize a per-shard table to actor + 1 and abort with
  // std::bad_alloc. Each mutant must load, count exactly that record as
  // corrupt, and answer every shard query as if the record were absent.
  // Then the same sweep over the aux bytes (the shard span) of the first
  // kShardBatch record: a span can never size a table, and one that would
  // reach past kMaxTraceShards marks its record corrupt.
  const std::string path = TempPath("corrupt_shard.bin");
  {
    SimConfig cfg;
    cfg.exec.tap_workers = 2;
    cfg.telemetry.enabled = true;
    cfg.telemetry.stream_path = path;
    Simulator sim(cfg);
    Kernel& kernel = sim.kernel();
    for (int p = 0; p < 20; ++p) {
      Reserve* pool =
          kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "pool");
      pool->Deposit(ToQuantity(Energy::Joules(10.0 + p)));
      Reserve* app = kernel.Create<Reserve>(kernel.root_container_id(), Label(Level::k1), "app");
      Tap* feed = kernel.Create<Tap>(kernel.root_container_id(), Label(Level::k1), "feed",
                                     pool->id(), app->id());
      feed->SetConstantPower(Power::Milliwatts(50 + p));
      ASSERT_TRUE(sim.taps().Register(feed->id()));
    }
    sim.Run(Duration::Millis(200));
  }
  const std::vector<unsigned char> clean = Slurp(path);
  const size_t actor_at = sizeof(TraceFileHeader) + offsetof(TraceRecord, actor);
  ASSERT_GT(clean.size(), actor_at + 4);
  TraceReader reference;
  ASSERT_TRUE(TraceReader::LoadFile(path, &reference));
  ASSERT_EQ(reference.records().front().kind, static_cast<uint8_t>(RecordKind::kPlanShard));
  ASSERT_EQ(reference.records().front().actor, 0u);
  ASSERT_EQ(reference.aggregate().corrupt_records(), 0u);
  ASSERT_TRUE(reference.complete());
  const size_t shards = reference.aggregate().FlowByShard().size();
  uint32_t covered = 0;  // The rows are work items; their spans tile the 20 shards.
  for (const ShardFlow& row : reference.aggregate().FlowByShard()) {
    covered += row.shards;
  }
  ASSERT_EQ(covered, 20u);

  for (int bit = 20; bit < 32; ++bit) {
    const std::string label = "actor bit " + std::to_string(bit);
    std::vector<unsigned char> bytes = clean;
    bytes[actor_at + bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);

    TraceReader reader;
    ASSERT_TRUE(TraceReader::LoadFile(path, &reader)) << label;
    EXPECT_EQ(reader.aggregate().corrupt_records(), 1u) << label;
    EXPECT_FALSE(reader.complete()) << label;
    EXPECT_EQ(reader.aggregate().FlowByShard().size(), shards) << label;
    EXPECT_EQ(reader.aggregate().TotalTapFlow(), reference.aggregate().TotalTapFlow()) << label;
    EXPECT_TRUE(reader.ShardTimeline(reader.records().front().actor).empty()) << label;

    LiveAggregator agg;
    for (const TraceRecord& r : reader.records()) {
      agg.OnRecord(r);
    }
    EXPECT_EQ(agg.corrupt_records(), 1u) << label;
    EXPECT_EQ(agg.records_seen(), reader.records().size()) << label;
    EXPECT_LE(agg.shard_live().size(), covered) << label;
    EXPECT_EQ(agg.FlowByShard().size(), shards) << label;
    EXPECT_EQ(agg.TotalTapFlow(), reference.aggregate().TotalTapFlow()) << label;
  }

  // The aux bytes of the first kShardBatch record: every single-bit flip
  // gives a span of up to 65,535 shards from a small first shard — not
  // corrupt, so its flow still counts, but the fold sizes nothing by it and
  // the reader's timeline covers exactly the flipped span.
  size_t batch_at = 0;
  while (batch_at < reference.records().size() &&
         reference.records()[batch_at].kind != static_cast<uint8_t>(RecordKind::kShardBatch)) {
    ++batch_at;
  }
  ASSERT_LT(batch_at, reference.records().size());
  const TraceRecord batch = reference.records()[batch_at];
  const size_t rec_at = sizeof(TraceFileHeader) + batch_at * sizeof(TraceRecord);
  const size_t aux_at = rec_at + offsetof(TraceRecord, aux);
  const size_t batch_actor_at = rec_at + offsetof(TraceRecord, actor);
  auto load_mutant = [&](const std::vector<unsigned char>& bytes, TraceReader* reader) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    ASSERT_TRUE(TraceReader::LoadFile(path, reader));
  };
  for (int bit = 0; bit < 16; ++bit) {
    const std::string label = "aux bit " + std::to_string(bit);
    std::vector<unsigned char> bytes = clean;
    bytes[aux_at + bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    TraceReader reader;
    load_mutant(bytes, &reader);
    const TraceRecord& mutated = reader.records()[batch_at];
    ASSERT_EQ(mutated.aux, batch.aux ^ (1u << bit)) << label;
    EXPECT_EQ(reader.aggregate().corrupt_records(), 0u) << label;
    EXPECT_EQ(reader.aggregate().TotalTapFlow(), reference.aggregate().TotalTapFlow()) << label;
    EXPECT_LE(reader.aggregate().shard_live().size(), covered) << label;
    const uint32_t last = batch.actor + BatchShards(mutated) - 1;
    EXPECT_FALSE(reader.ShardTimeline(last).empty()) << label;
    EXPECT_NO_THROW((void)reader.ShardTimeline(last + 1)) << label;
  }
  // A first shard near the bound plus a wide span reaches past it: corrupt,
  // counted and skipped, and no table grows toward the bound.
  for (const uint32_t span : {2u, 0xffffu}) {
    const std::string label = "span " + std::to_string(span) + " at the bound";
    std::vector<unsigned char> bytes = clean;
    const uint32_t actor = kMaxTraceShards - 1;
    std::memcpy(&bytes[batch_actor_at], &actor, sizeof(actor));
    const auto aux = static_cast<uint16_t>(span);
    std::memcpy(&bytes[aux_at], &aux, sizeof(aux));
    TraceReader reader;
    load_mutant(bytes, &reader);
    EXPECT_EQ(reader.aggregate().corrupt_records(), 1u) << label;
    EXPECT_FALSE(reader.complete()) << label;
    EXPECT_LE(reader.aggregate().shard_live().size(), covered) << label;
    EXPECT_EQ(reader.aggregate().row(actor), nullptr) << label;
    EXPECT_TRUE(reader.ShardTimeline(actor).empty()) << label;
  }
  std::remove(path.c_str());
}

TEST(TraceSinkTest, SeededMutantSweepLoadsCleanlyAndTruncationsFlagTruncated) {
  // 200 seeded mutants of a small streamed fleet trace (phones, a cut relay
  // chain and a planned scheduler, so every folded record kind appears):
  // three in four flip 1-16 random bits anywhere, header included; the rest
  // truncate the file at a random length. LoadFile must never throw or
  // abort (the sanitizer builds run this sweep too); a mutant it rejects
  // says why; and every truncation loads as truncated, or — cut inside the
  // header — is rejected.
  const std::string path = TempPath("mutant_sweep.bin");
  {
    SimConfig cfg;
    cfg.exec.tap_workers = 2;
    cfg.exec.shard_cut_threshold = 8;
    cfg.telemetry.enabled = true;
    cfg.telemetry.stream_path = path;
    Simulator sim(cfg);
    Kernel& k = sim.kernel();
    for (int p = 0; p < 8; ++p) {
      Reserve* pool = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "pool");
      pool->Deposit(ToQuantity(Energy::Joules(10.0 + p)));
      Reserve* app = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "app");
      Tap* feed =
          k.Create<Tap>(k.root_container_id(), Label(Level::k1), "feed", pool->id(), app->id());
      feed->SetConstantPower(Power::Milliwatts(50 + p));
      ASSERT_TRUE(sim.taps().Register(feed->id()));
    }
    Reserve* prev = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "head");
    prev->Deposit(ToQuantity(Energy::Joules(100.0)));
    for (int i = 0; i < 24; ++i) {
      Reserve* next = k.Create<Reserve>(k.root_container_id(), Label(Level::k1), "hop");
      Tap* relay =
          k.Create<Tap>(k.root_container_id(), Label(Level::k1), "relay", prev->id(), next->id());
      relay->SetConstantPower(Power::Milliwatts(5));
      ASSERT_TRUE(sim.taps().Register(relay->id()));
      prev = next;
    }
    auto proc = sim.CreateProcess("spin");
    ObjectId r =
        ReserveCreate(k, *sim.boot_thread(), proc.container, Label(Level::k1), "r").value();
    ASSERT_EQ(ReserveTransfer(k, *sim.boot_thread(), sim.battery_reserve_id(), r,
                              ToQuantity(Energy::Joules(10.0))),
              Status::kOk);
    k.LookupTyped<Thread>(proc.thread)->set_active_reserve(r);
    sim.AttachBody(proc.thread, std::make_unique<SpinBody>());
    sim.Run(Duration::Millis(200));
  }
  const std::vector<unsigned char> clean = Slurp(path);
  {
    TraceReader reference;
    ASSERT_TRUE(TraceReader::LoadFile(path, &reference));
    ASSERT_TRUE(reference.complete());
    ASSERT_GT(reference.aggregate().BoundarySettles(), 0u);
    ASSERT_GT(reference.aggregate().SchedPlanBuilds(), 0u);
  }

  std::mt19937_64 rng(0x43494e444552ull);
  int loaded_mutants = 0;
  for (int m = 0; m < 200; ++m) {
    std::vector<unsigned char> bytes = clean;
    const bool truncation = m % 4 == 3;
    std::string label = "mutant " + std::to_string(m);
    if (truncation) {
      bytes.resize(rng() % clean.size());
      label += " (truncated to " + std::to_string(bytes.size()) + " bytes)";
    } else {
      const int flips = 1 + static_cast<int>(rng() % 16);
      for (int f = 0; f < flips; ++f) {
        const uint64_t bit = rng() % (clean.size() * 8);
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      }
      label += " (" + std::to_string(flips) + " bit flips)";
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);

    TraceReader reader;
    std::string error;
    bool loaded = false;
    EXPECT_NO_THROW(loaded = TraceReader::LoadFile(path, &reader, &error)) << label;
    if (!loaded) {
      EXPECT_FALSE(error.empty()) << label;
      EXPECT_TRUE(!truncation || bytes.size() < sizeof(TraceFileHeader)) << label;
      continue;
    }
    ++loaded_mutants;
    EXPECT_EQ(reader.aggregate().records_seen(), reader.records().size()) << label;
    if (truncation) {
      EXPECT_TRUE(reader.truncated()) << label;
      EXPECT_FALSE(reader.complete()) << label;
    }
    // The reader's own walks over the retained records.
    EXPECT_NO_THROW((void)reader.ShardTimeline(0)) << label;
    EXPECT_NO_THROW((void)reader.TapFlows()) << label;
  }
  // Most flips land in records, which load; the sweep is not all rejects.
  EXPECT_GT(loaded_mutants, 100);
  std::remove(path.c_str());
}

// -- Drop accounting -------------------------------------------------------------

TEST(TraceSinkTest, RingDropSplitSurfacesInReaderFromDomainAndFile) {
  TelemetryConfig cfg = SmallConfig();
  cfg.ring_bytes = 16 * sizeof(TraceRecord);  // Tiny ring: overwrites easily.
  cfg.spill_grow = true;
  TraceDomain domain(cfg);
  // Overflow the ring before flushing: 40 into a 16-slot ring = 24 dropped.
  for (int i = 0; i < 40; ++i) {
    domain.ring(0)->Emit(0, RecordKind::kShardBatch, 0, 0, 0, i, 0);
  }
  domain.FlushFrame();
  EXPECT_EQ(domain.ring_dropped(), 24u);

  TraceReader from_domain = TraceReader::FromDomain(domain);
  EXPECT_EQ(from_domain.ring_dropped(), 24u);
  EXPECT_EQ(from_domain.spill_dropped(), 0u);
  EXPECT_EQ(from_domain.dropped(), 24u);
  EXPECT_FALSE(from_domain.complete());

  const std::string path = TempPath("ring_drops.bin");
  ASSERT_TRUE(domain.WriteFile(path));
  TraceReader from_file;
  ASSERT_TRUE(TraceReader::LoadFile(path, &from_file));
  // The frame mark's v1 stamp carries the split into the file.
  EXPECT_EQ(from_file.ring_dropped(), 24u);
  EXPECT_EQ(from_file.spill_dropped(), 0u);
  EXPECT_FALSE(from_file.complete());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cinder
