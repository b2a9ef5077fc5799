// Shared pieces of the trace tools (energytrace, energytop): strict numeric
// flag parsing and the tail-follow loop over a streaming CNDTRC01 file.
//
// A FileStreamSink writes records append-only behind a placeholder header
// (record_count 0) and patches the header once at Finish. The follower
// exploits exactly that: each sweep it probes the file (ProbeTraceFile),
// delivers every newly complete 32-byte record to the callback, and checks
// the header it just read — when the header's record count matches what it
// delivered, the stream is finalized and the follow ends. A file that stops
// growing without finalizing (writer killed) ends the follow as
// kIdleTimeout so consumers can report a truncated stream instead of
// hanging forever.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "src/telemetry/trace_domain.h"
#include "src/telemetry/trace_record.h"

namespace cinder {
namespace tools {

// Parses a whole decimal flag value into *out: digits only, at least
// `min`, at most UINT32_MAX. Anything else ("abc", "", "-1", "5ms", an
// overflow) returns false, so the caller can print its usage line.
inline bool ParseFlagU32(const char* s, uint32_t min, uint32_t* out) {
  uint64_t v = 0;
  if (*s == '\0') {
    return false;
  }
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(*s - '0');
    if (v > UINT32_MAX) {
      return false;
    }
  }
  if (v < min) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

struct FollowOptions {
  uint32_t poll_ms = 200;
  // Give up after this long with no new bytes and no finalized header.
  // 0 = poll forever. Ignored in `once` mode.
  uint32_t idle_timeout_ms = 10'000;
  // Read every record currently on disk, then return without polling —
  // the non-interactive mode (CI smoke tests, --once).
  bool once = false;
};

enum class FollowResult {
  kFinalized,    // Header count matches the records delivered: complete.
  kIdleTimeout,  // Stream stopped growing while still unfinalized.
  kError,        // Unreadable file / bad magic / record-size mismatch.
};

// Tails `path`, invoking on_record(const TraceRecord&) for each whole
// record in stream order. In `once` mode returns after one sweep
// (kFinalized only if the header already matched). `partial_tail`, when
// given, reports whether the last sweep saw the stray bytes of a chopped
// record behind the whole ones.
template <typename OnRecord>
FollowResult FollowTraceFile(const std::string& path, const FollowOptions& opt,
                             OnRecord&& on_record, std::string* error = nullptr,
                             bool* partial_tail = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return FollowResult::kError;
  }
  uint64_t delivered = 0;
  Clock::time_point last_growth = Clock::now();
  for (;;) {
    // Sweep: everything complete on disk beyond what we've delivered. The
    // header is read before the length, and the writer patches
    // record_count only after its last record, so a final count is always
    // backed by the records this sweep sees.
    TraceFileExtent extent;
    if (!ProbeTraceFile(f, path, &extent, error)) {
      std::fclose(f);
      return FollowResult::kError;
    }
    const uint64_t on_disk = extent.records;
    if (partial_tail != nullptr) {
      *partial_tail = extent.partial_tail;
    }
    if (on_disk > delivered) {
      last_growth = Clock::now();
      std::fseek(f, static_cast<long>(sizeof(TraceFileHeader) + delivered * sizeof(TraceRecord)),
                 SEEK_SET);
      TraceRecord buf[256];
      while (delivered < on_disk) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(on_disk - delivered, sizeof(buf) / sizeof(buf[0])));
        const size_t got = std::fread(buf, sizeof(TraceRecord), want, f);
        for (size_t i = 0; i < got; ++i) {
          on_record(buf[i]);
        }
        delivered += got;
        if (got < want) {
          break;  // Racing the writer; the next sweep retries.
        }
      }
    }
    // Finalized? A nonzero count matching what we delivered means the
    // stream is complete. A zero count is ambiguous (placeholder header vs
    // an empty finalized run), so follow mode resolves it through the idle
    // timeout, never eagerly.
    const uint64_t count = extent.header.record_count;
    if (count == delivered && count > 0) {
      std::fclose(f);
      return FollowResult::kFinalized;
    }
    if (opt.once) {
      std::fclose(f);
      return count == delivered ? FollowResult::kFinalized : FollowResult::kIdleTimeout;
    }
    // Idle time is wall time since the last growth, so it advances however
    // short the poll interval is.
    if (opt.idle_timeout_ms > 0 &&
        Clock::now() - last_growth >= std::chrono::milliseconds(opt.idle_timeout_ms)) {
      std::fclose(f);
      return FollowResult::kIdleTimeout;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.poll_ms));
  }
}

}  // namespace tools
}  // namespace cinder
