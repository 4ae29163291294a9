// Shared pieces of the end-to-end benchmark: the workload description, the
// per-operation sample sets, the span recorder of traced runs, and the
// correctness checks. Everything here lives outside the program under test;
// the benchmark reaches the program only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dfdbg/common/json.hpp"
#include "dfdbg/h264/app.hpp"

namespace perfbench {

// --- workload -----------------------------------------------------------------

/// One workload: the inputs every arm of a round runs on. Only `seed`
/// varies between runs of the same workload.
struct Workload {
  std::string name;
  // H.264 decoder (native, debug, trace and remote arms).
  int width = 64;
  int height = 64;
  int frames = 4;
  int qp = 20;
  // Wide graph (fibers and K=4 arms).
  int lanes = 16;
  int stages = 2;
  int tokens = 256;
  std::uint32_t spin = 4000;
  int workers = 4;
  std::uint64_t seed = 1;
  /// A seeded decoder fault; only the self-test sets one.
  dfdbg::h264::FaultPlan::Kind fault = dfdbg::h264::FaultPlan::Kind::kNone;

  [[nodiscard]] int macroblocks() const { return (width / 16) * (height / 16) * frames; }
  [[nodiscard]] dfdbg::h264::H264AppConfig decoder_config() const;
  [[nodiscard]] std::uint32_t wide_seed() const {
    return static_cast<std::uint32_t>(seed * 2654435761u) | 1u;
  }
};

// --- timing -------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in nanoseconds.
std::int64_t process_cpu_ns();

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// Per-operation values of one metric within a run.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> v_;
};

/// Named sample sets, printed as a reference table (n, p10, p50, p90).
using SampleMap = std::map<std::string, Samples>;

// --- spans (traced runs only) -----------------------------------------------------

/// In-memory span recorder for the benchmark's own calls into each layer.
/// Spans of one operation share its id; nesting follows from the times.
/// Each recording thread has its own tracer; see absorb().
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::int64_t t0;
    std::int64_t t1;
    int tid;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t), name_(name), t0_(t != nullptr ? now_ns() : 0) {}
    ~Scope() {
      if (t_ != nullptr) t_->spans_.push_back({name_, t_->op_, t0_, now_ns(), t_->tid_});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    std::int64_t t0_;
  };

  /// `tid` labels the thread that records into this tracer.
  explicit Tracer(int tid = 1) : tid_(tid) {}

  /// Starts a new operation: later spans carry its id.
  void begin_op() { ++op_; }
  /// Continues operation `op` (a helper thread's tracer joining it).
  void join_op(std::uint64_t op) { op_ = op; }
  [[nodiscard]] std::uint64_t op() const { return op_; }
  /// Moves the spans of another thread's tracer into this one.
  void absorb(Tracer& other);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Writes every span as Chrome-trace JSON ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t op_ = 0;
  int tid_;
};

// --- checks ---------------------------------------------------------------------
// Each returns an empty string when the check passes, else what went wrong.
// They take plain data so the self-test can feed them tampered inputs.

/// Decoded frames against the sequential reference encoder's reconstruction.
std::string check_frames(const std::vector<dfdbg::h264::Frame>& got,
                         const std::vector<dfdbg::h264::Frame>& want);

/// One link as seen at the end of an operation.
struct LinkCount {
  std::string name;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t removed = 0;  ///< tokens the benchmark deleted through the debugger
  std::uint64_t occupancy = 0;
};

/// Conservation on every link: pushes - pops - removed == occupancy.
std::string check_conservation(const std::vector<LinkCount>& links);

std::string check_count(const char* what, std::uint64_t got, std::uint64_t want);

/// The wide graph's sink checksum, recomputed on the host from the
/// generator's documented payload stream and stage transform.
std::uint64_t wide_reference_checksum(const Workload& w);

/// A response frame must echo `id` and carry a `result`; on success the
/// parsed frame is left in `doc`.
std::string check_response(std::string_view frame, std::uint64_t id, dfdbg::JsonValue* doc);

/// What a journal subscriber saw between its subscribe ack and the end.
struct JournalTally {
  std::uint64_t start = 0;      ///< cursor in the subscribe ack
  std::uint64_t next = 0;       ///< `next` of the last delta (== start if none)
  std::uint64_t delivered = 0;  ///< events carried by the deltas
  std::uint64_t gaps = 0;       ///< events reported lost
  std::uint64_t broken = 0;     ///< deltas whose from/next/count disagree
};

/// Adds one pushed `journal.delta` frame to the tally; a delta whose
/// `from` does not continue the stream (after its `gap`), or whose event
/// count disagrees with `next - from`, counts as broken.
void tally_journal_delta(std::string_view frame, JournalTally* t);

/// Delivered events plus reported gaps must cover exactly the events the
/// journal recorded after the subscription (up to cursor `recorded`), and
/// no delta may be broken.
std::string check_journal(const JournalTally& t, std::uint64_t recorded);

/// The trace collector's per-link push/pop counts against the framework's
/// link indexes (same links, same order), then conservation on its counts.
std::string check_trace_counts(const std::vector<LinkCount>& traced,
                               const std::vector<LinkCount>& links);

/// `inject` must raise a link's occupancy by exactly one and `remove`
/// must bring it back.
std::string check_inject_remove(std::uint64_t before, std::uint64_t injected,
                                std::uint64_t restored);

/// The trace CSV holds a header and one row per recorded event.
std::string check_csv_rows(std::string_view csv, std::uint64_t events);

}  // namespace perfbench
