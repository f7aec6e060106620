// Scoped-span tracing into lock-free per-thread ring buffers.
//
// A TraceSpan is an RAII scope: construction stamps a monotonic start time,
// destruction stamps the end and pushes one completed-span event into the
// calling thread's ring buffer. Each thread owns its buffer exclusively
// (single-producer, no locks or shared atomics on the hot path), so a span
// costs two clock reads plus one ring write when tracing is enabled and a
// single relaxed flag load when it is not — cheap enough to leave the
// instrumentation compiled into every build.
//
// Buffers are fixed-capacity rings: when a thread records more spans than
// its ring holds, the oldest events are overwritten and counted as dropped
// (trace_stats().dropped). Because a span is recorded at its *end*,
// enclosing spans always outlive — and are recorded after — their children,
// so overwrite pressure evicts fine-grained leaf events first and the
// phase-level structure survives. Allocation is bounded: one ring per
// thread that actually traced, never grown.
//
// Draining (write_chrome_trace / collect_trace_events / clear_trace) walks
// every registered thread buffer and must run while no span is in flight —
// in practice, after the parallel work completed (the runtime pool's job
// completion provides the necessary happens-before edge for worker
// buffers). The output is Chrome trace-event JSON: load it in
// chrome://tracing or https://ui.perfetto.dev.
//
// Tracing never touches solver state; every bitwise determinism contract
// (thread counts, .mt4, .simd-off) holds with tracing on or off
// (tests/obs/identity_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mch::obs {

/// Whether spans currently record anything. Resolved once at process start
/// from MCH_TRACE (unset/"0" = off), flippable at runtime.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Ring capacity (events per thread) for buffers created *after* this call;
/// clear_trace() re-caps existing buffers too. Default 16384, overridable
/// with MCH_TRACE_RING. Intended for tests and memory-tight embeddings.
void set_trace_ring_capacity(std::size_t events);
std::size_t trace_ring_capacity();

/// Nanoseconds since the process-wide trace epoch (steady clock).
std::uint64_t trace_now_ns();

/// One key/value annotation on a span. Keys and string values must be
/// static or interned strings (see intern()) — the ring stores pointers.
struct TraceArg {
  enum class Kind : std::uint8_t { kNone, kInt, kDouble, kString };
  const char* key = nullptr;
  Kind kind = Kind::kNone;
  union {
    std::int64_t i;
    double d;
    const char* s;
  } value = {0};
};

/// Copies `text` into a process-lifetime intern pool and returns a stable
/// pointer, so dynamic strings (design names, …) can be span args. Repeat
/// calls with equal text return the same pointer; the pool is never freed.
const char* intern(std::string_view text);

/// Names the calling thread in the trace output ("main", "worker-3", …).
/// The runtime's pool workers register themselves; other threads default
/// to "thread-<tid>".
void set_trace_thread_name(std::string name);

class TraceSpan {
 public:
  /// `name` must be a static or interned string.
  explicit TraceSpan(const char* name);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Annotates the span; silently ignored beyond kMaxArgs and when tracing
  /// was disabled at construction. Key (and string values) must be static
  /// or interned.
  TraceSpan& arg(const char* key, double value);
  TraceSpan& arg(const char* key, const char* value);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>,
                             int> = 0>
  TraceSpan& arg(const char* key, T value) {
    return arg_int(key, static_cast<std::int64_t>(value));
  }

  /// Enough for the widest span, solve.component (eleven args).
  static constexpr std::size_t kMaxArgs = 11;

 private:
  TraceSpan& arg_int(const char* key, std::int64_t value);
  TraceArg& next_arg(const char* key);

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
  std::uint8_t num_args_ = 0;
  TraceArg args_[kMaxArgs];
};

/// Records an already-timed span (the RAII path calls this; tests and
/// adapters may too). No-op when tracing is disabled.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, const TraceArg* args,
                 std::size_t num_args);

struct TraceStats {
  std::uint64_t recorded = 0;  ///< spans pushed since the last clear
  std::uint64_t dropped = 0;   ///< spans overwritten by ring wrap-around
  std::size_t buffered = 0;    ///< events currently held across all rings
  std::size_t threads = 0;     ///< thread buffers registered
};
TraceStats trace_stats();

/// A drained event, for tests and in-process consumers.
struct CollectedEvent {
  const char* name = nullptr;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::vector<TraceArg> args;
};

/// Snapshots every thread's ring (oldest first per thread). Caller must
/// ensure no span is in flight on other threads.
std::vector<CollectedEvent> collect_trace_events();

/// The Chrome trace-event JSON document for the current buffers.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; false when the file cannot be
/// opened.
bool write_chrome_trace(const std::string& path);

/// Empties every ring and resets the recorded/dropped counters (buffers
/// stay registered, re-capped to the current trace_ring_capacity()).
void clear_trace();

}  // namespace mch::obs
