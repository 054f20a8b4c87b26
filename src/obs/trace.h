// Per-lane span recorder with Chrome trace-event export.
//
// == Architecture ==
//
// A TraceRecorder owns one fixed-capacity ring buffer ("lane") per
// thread that ever records into it. The design goals, in order:
//
//   1. Zero steady-state allocation on the recording path. A lane's
//      event storage is allocated once at registration (first event
//      from that thread); after that, emit() is a bump-index store
//      into a preallocated array. When the ring is full it wraps,
//      overwriting the oldest events and counting the drops — a trace
//      degrades to "most recent window" instead of ever allocating or
//      blocking the hot path.
//
//   2. Lock-free single-writer lanes. Only the owning thread writes a
//      lane, so emits need no atomics or locks. The only lock is the
//      registration mutex, taken once per (thread, recorder) pair.
//      Lane lookup after registration is a thread_local hash-map find
//      keyed by the recorder's process-unique id (an id, not the
//      address, so a recorder allocated at a reused address can never
//      alias a dead one's cached lanes). Export (write_chrome_json)
//      is expected to run quiescently — after solve() returns — and
//      simply reads the rings.
//
//   3. Compiled-out-cheap when disabled. Instrumentation sites go
//      through TraceSpan / trace_emit, which read the thread-local
//      ObsContext (obs/context.h): when no recorder is installed the
//      whole site is one thread-local load and a null check — no
//      clock read, no branch into this file.
//
// == Buffer layout ==
//
//   TraceRecorder
//     +-- lanes_[0]  <- registration order = Chrome tid
//     |     events: TraceEvent[capacity]   (fixed ring)
//     |     head:   next write slot (monotonic; slot = head % capacity)
//     |     dropped: events overwritten after wrap
//     +-- lanes_[1]
//     ...
//
//   TraceEvent (32 bytes): {const char* name; u32 t0_us, t1_us;
//     u64 arg; u32 arg2; u16 rank; u16 cat}. `name` must be a string
//     with static storage duration (literals) — events never own
//     memory. Timestamps are microseconds since the recorder's epoch
//     (construction or last clear()), which keeps 32 bits good for
//     ~71 minutes; longer runs still record (wrapping is detected at
//     export via the 64-bit monotonic now_us()).
//
// == Rank / lane mapping ==
//
//   Chrome pid = shard rank: taken from ObsContext.rank at emit time.
//     Under SPMD transports each process/thread-rank installs its own
//     rank once; under in-process multi-rank execution
//     ShardComm::each_rank installs the simulated rank around each
//     per-rank body.
//   Chrome tid = lane: the recording thread's registration index in
//     this recorder (0 = first thread that emitted, usually the
//     orchestrating caller; workers follow in first-emission order).
//
// == Export format ==
//
//   write_chrome_json() emits the Chrome trace-event JSON object
//   format: {"traceEvents":[...],"displayTimeUnit":"ms"} with one
//   complete ("ph":"X") event per line:
//
//     {"name":"Gen_VF","cat":"phase","ph":"X","ts":12,"dur":345,
//      "pid":0,"tid":1,"args":{"a":0,"b":0}}
//
//   ts/dur are integer microseconds. The one-event-per-line layout is
//   part of the format contract: tools/trace_merge parses it with a
//   deliberately small line-oriented reader. Files load directly in
//   Perfetto / chrome://tracing. Under SPMD each rank writes its own
//   file (the solver derives "<prefix>.rank<r>.json" names) and
//   trace_merge fuses them on the shared pid axis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/context.h"

namespace ls3df {

// Span category (Chrome "cat" field; stable names in trace.cpp).
enum class TraceCat : std::uint16_t {
  kPhase = 0,       // solver phase windows (Gen_VF, PEtot_F, ...)
  kNode = 1,        // TaskGraph nodes of the overlapped iteration
  kPool = 2,        // ThreadPool lane activity (batch task execution)
  kCollective = 3,  // ShardComm/Transport collective phases
  kSolver = 4,      // eigensolver sweeps, outer iterations
  kCheckpoint = 5,  // snapshot writes
  kMark = 6,        // anything else
};

const char* trace_cat_name(TraceCat cat);

struct TraceEvent {
  const char* name;    // static storage duration only
  std::uint32_t t0_us; // span start, µs since recorder epoch
  std::uint32_t t1_us; // span end
  std::uint64_t arg;   // payload (bytes moved, batch size, chain id...)
  std::uint32_t arg2;  // secondary payload (wait µs, iteration, ...)
  std::uint16_t rank;  // Chrome pid
  std::uint16_t cat;   // TraceCat
};

class TraceRecorder {
 public:
  // `capacity` = events retained per lane (ring size). The default keeps
  // a lane under 2 MiB while holding several full solves of spans.
  explicit TraceRecorder(std::size_t capacity = 1 << 16);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Record one complete span on the calling thread's lane. `name` must
  // have static storage duration. Timestamps are recorder-epoch µs —
  // use now_us(), or supply externally reconstructed times (the
  // TaskGraph observer reports times relative to run() entry; the
  // driver adds the run epoch).
  void emit(const char* name, TraceCat cat, std::uint64_t t0_us,
            std::uint64_t t1_us, std::uint64_t arg = 0,
            std::uint32_t arg2 = 0);

  // Microseconds since the recorder epoch (steady clock).
  std::uint64_t now_us() const;

  // --- quiescent-side API (export / tests; not for recording threads) ---

  // Total events ever emitted / dropped by ring wrap, across lanes.
  std::uint64_t total_events() const;
  std::uint64_t dropped() const;
  int lane_count() const;
  std::size_t capacity() const { return capacity_; }

  // Retained events of one lane in emission order (oldest first).
  std::vector<TraceEvent> lane_events(int lane) const;

  // Drop all recorded events and restart the epoch. Lanes stay
  // registered (their storage is reused).
  void clear();

  // Chrome trace-event JSON (see header block). Returns false (file
  // variant) if the file cannot be opened.
  void write_chrome_json(std::ostream& os) const;
  bool write_chrome_json_file(const std::string& path) const;

 private:
  struct Lane;

  Lane* lane_for_this_thread();

  const std::uint64_t id_;        // process-unique recorder id
  const std::size_t capacity_;
  std::uint64_t epoch_ns_;        // steady-clock ns at construction/clear
  mutable std::mutex mu_;         // guards lanes_ registration
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// RAII span recording [construction, destruction) on the current
// thread's lane of the ObsContext recorder. When no recorder is
// installed the constructor is a thread-local load + null check and the
// destructor a null check. set_arg/set_arg2 update the payload before
// the span closes (e.g. byte counts known only after a collective).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, TraceCat cat = TraceCat::kMark,
                     std::uint64_t arg = 0)
      : rec_(obs_context().trace), name_(name), cat_(cat), arg_(arg) {
    if (rec_) t0_ = rec_->now_us();
  }
  ~TraceSpan() {
    if (rec_) rec_->emit(name_, cat_, t0_, rec_->now_us(), arg_, arg2_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(std::uint64_t arg) { arg_ = arg; }
  void set_arg2(std::uint32_t arg2) { arg2_ = arg2; }
  bool active() const { return rec_ != nullptr; }

 private:
  TraceRecorder* rec_;
  const char* name_;
  TraceCat cat_;
  std::uint64_t arg_;
  std::uint32_t arg2_ = 0;
  std::uint64_t t0_ = 0;
};

}  // namespace ls3df
