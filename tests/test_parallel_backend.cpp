// Tests of the kParallel process backend: partitioned sub-kernels with
// deterministic barrier sync (docs/KERNEL.md "Parallel backend").
//
// The determinism contract has two tiers, and the suite pins both:
//   * one worker — byte-identical to the sequential fibers backend (same
//     schedule, same trace timestamps, same provenance ids), and
//   * K workers  — per-link token order invariant (the KPN property) and
//     run-to-run byte-identical for a fixed partition map (shard-ranged
//     token ids, per-partition barrier order).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dfdbg/common/strings.hpp"

#include "../bench/wide_graph.hpp"
#include "dfdbg/dbgcli/render.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/trace/chrome_trace.hpp"
#include "dfdbg/trace/trace.hpp"

namespace dfdbg {
namespace {

using benchutil::WideGraphConfig;
using h264::H264App;
using h264::H264AppConfig;

/// Forces a known observability state for one test.
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

/// Restores the global journal to its default shape around a test.
struct JournalGuard {
  JournalGuard() { restore(); }
  ~JournalGuard() { restore(); }

  static void restore() {
    obs::Journal& j = obs::Journal::global();
    j.set_capacity(obs::Journal::kDefaultCapacity);
    j.set_recording(true);
    j.reset();
  }
};

/// Pins the default backend (and, for kParallel, the worker count) for one
/// test, restoring the previous default and environment on exit. H264App
/// builds its own kernel, so the default is the only steering knob.
struct BackendGuard {
  explicit BackendGuard(sim::ProcessBackend b, int workers = 0)
      : saved_(sim::default_process_backend()) {
    const char* prev = std::getenv("DFDBG_PARALLEL_WORKERS");
    if (prev != nullptr) saved_workers_ = prev;
    had_workers_ = prev != nullptr;
    sim::set_default_process_backend(b);
    if (workers > 0)
      ::setenv("DFDBG_PARALLEL_WORKERS", std::to_string(workers).c_str(), 1);
  }
  ~BackendGuard() {
    sim::set_default_process_backend(saved_);
    if (had_workers_)
      ::setenv("DFDBG_PARALLEL_WORKERS", saved_workers_.c_str(), 1);
    else
      ::unsetenv("DFDBG_PARALLEL_WORKERS");
  }

 private:
  sim::ProcessBackend saved_;
  std::string saved_workers_;
  bool had_workers_ = false;
};

H264AppConfig small_decoder() {
  H264AppConfig cfg;
  cfg.params.width = 32;
  cfg.params.height = 32;
  cfg.params.frame_count = 2;
  cfg.params.qp = 20;
  return cfg;
}

/// Decodes under the current default backend with a TraceCollector attached
/// and returns the sorted trace CSV.
std::string decode_trace_csv() {
  auto built = H264App::build(small_decoder());
  EXPECT_TRUE(built.ok()) << built.status().message();
  auto& app = **built;
  trace::TraceCollector tc(app.app(), 1 << 18);
  tc.attach();
  app.start();
  app.kernel().run();
  EXPECT_TRUE(app.decoded_matches_golden());
  EXPECT_EQ(tc.dropped(), 0u);
  return tc.to_csv();
}

// --- trace parity -----------------------------------------------------------

// Tier 1: with one worker the parallel kernel models everything the
// sequential backends model (including DMA-engine contention), so the full
// decoder trace — timestamps included — is byte-identical to fibers.
TEST(ParallelH264, TraceCsvMatchesFibersAtOneWorker) {
  std::string fibers;
  {
    BackendGuard g(sim::ProcessBackend::kFibers);
    fibers = decode_trace_csv();
  }
  std::string parallel;
  {
    BackendGuard g(sim::ProcessBackend::kParallel, 1);
    parallel = decode_trace_csv();
  }
  EXPECT_EQ(fibers, parallel);
}

// Tier 2: with K workers trace timestamps legitimately diverge from the
// sequential schedule (boundary tokens cross at barriers), but for a fixed
// partition map the whole CSV is byte-identical from run to run.
TEST(ParallelH264, TraceCsvRunToRunDeterministic) {
  for (int workers : {2, 4}) {
    BackendGuard g(sim::ProcessBackend::kParallel, workers);
    std::string first = decode_trace_csv();
    std::string second = decode_trace_csv();
    EXPECT_EQ(first, second) << "workers=" << workers;
  }
}

// --- whence parity ----------------------------------------------------------

/// Runs the decoder to the first stop on `ipf::ipf_out` and returns the
/// `whence` transcript for the newest queued token (the journal-replay
/// provenance query of paper §V).
std::string whence_at_first_ipf_send() {
  JournalGuard::restore();  // fresh token-id sequence: replay-comparable
  auto built = H264App::build(small_decoder());
  EXPECT_TRUE(built.ok()) << built.status().message();
  auto& app = **built;
  dbg::Session session(app.app());
  session.attach();
  app.start();
  EXPECT_TRUE(session.break_on_send("ipf::ipf_out").ok());
  dbg::RunOutcome out = session.run();
  EXPECT_EQ(out.result, sim::RunResult::kStopped);
  const dbg::DLink* dl = session.graph().link_by_iface("ipf::ipf_out");
  EXPECT_NE(dl, nullptr);
  if (dl == nullptr || dl->queue.empty()) return "<no data>";
  return cli::render_or_error(session.whence_chain("ipf::ipf_out", dl->queue.size() - 1, 8));
}

TEST(ParallelH264, WhenceMatchesFibersAtOneWorker) {
  EnabledGuard on(true);
  JournalGuard jg;
  std::string fibers;
  {
    BackendGuard g(sim::ProcessBackend::kFibers);
    fibers = whence_at_first_ipf_send();
  }
  std::string parallel;
  {
    BackendGuard g(sim::ProcessBackend::kParallel, 1);
    parallel = whence_at_first_ipf_send();
  }
  EXPECT_GT(fibers.size(), 0u);
  EXPECT_EQ(fibers, parallel);
}

TEST(ParallelH264, WhenceRunToRunDeterministic) {
  EnabledGuard on(true);
  JournalGuard jg;
  for (int workers : {2, 4}) {
    BackendGuard g(sim::ProcessBackend::kParallel, workers);
    std::string first = whence_at_first_ipf_send();
    std::string second = whence_at_first_ipf_send();
    EXPECT_EQ(first, second) << "workers=" << workers;
    EXPECT_NE(first.find("->"), std::string::npos) << first;
  }
}

// --- cross-partition FIFO ---------------------------------------------------

// Randomized wide graphs: every lane lives in its own partition (explicit
// fixed map), the fan-in merge in another, so every lane's last link is a
// boundary channel. The merge drains lanes round-robin with blocking reads,
// which makes the full sink sequence a closed-form function of the seeds —
// any reordering or loss across a boundary ring breaks the comparison.
TEST(ParallelWide, FifoAcrossPartitionBoundaries) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    for (int workers : {2, 4}) {
      WideGraphConfig cfg;
      cfg.pipelines = 4;
      cfg.stages = 2;
      cfg.tokens = 64;
      cfg.spin = 16;
      cfg.seed = seed;
      cfg.fixed_partitions = true;
      auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
      benchutil::run_wide_world(*w);
      std::vector<std::uint32_t> expected;
      expected.reserve(w->expected_tokens);
      std::vector<std::uint32_t> lane_state(static_cast<std::size_t>(cfg.pipelines));
      for (int p = 0; p < cfg.pipelines; ++p)
        lane_state[static_cast<std::size_t>(p)] = benchutil::wide_payload_seed(cfg, p);
      for (std::size_t j = 0; j < cfg.tokens; ++j) {
        for (int p = 0; p < cfg.pipelines; ++p) {
          std::uint32_t& x = lane_state[static_cast<std::size_t>(p)];
          x = benchutil::wide_next(x);
          std::uint32_t v = x;
          for (int s = 0; s < cfg.stages; ++s) v = benchutil::stage_transform(v, cfg.spin);
          expected.push_back(v);
        }
      }
      const auto& got = w->sink->received();
      ASSERT_EQ(got.size(), expected.size()) << "seed=" << seed << " workers=" << workers;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(static_cast<std::uint32_t>(got[i].as_u64()), expected[i])
            << "slot " << i << " seed=" << seed << " workers=" << workers;
      EXPECT_EQ(benchutil::sink_checksum(*w), benchutil::wide_expected_checksum(cfg));
    }
  }
}

// --- dispatch transcript determinism ----------------------------------------

/// Runs a wide world with the journal recording and returns every journal
/// event (dispatches included) as one transcript string.
std::string wide_journal_transcript(int workers) {
  obs::Journal& j = obs::Journal::global();
  j.set_capacity(1 << 16);
  j.reset();
  WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = 16;
  cfg.spin = 8;
  cfg.fixed_partitions = true;
  auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
  benchutil::run_wide_world(*w);
  std::string out = j.format_last(j.size());
  JournalGuard::restore();
  return out;
}

// The merged journal — worker dispatch records, pushes, pops, in barrier
// merge order — is byte-identical across repeated runs under a fixed
// partition map. This is the transcript `whence` and the PR 6 subscription
// streams replay, so its stability is what makes them usable at K > 1.
TEST(ParallelWide, DispatchTranscriptRunToRunDeterministic) {
  EnabledGuard on(true);
  JournalGuard jg;
  for (int workers : {2, 4}) {
    std::string first = wide_journal_transcript(workers);
    std::string second = wide_journal_transcript(workers);
    EXPECT_GT(first.size(), 0u);
    EXPECT_EQ(first, second) << "workers=" << workers;
  }
}

// The same at K=8, which oversubscribes a 4-core host: the stress case for
// the round handshake.
TEST(ParallelWide, DeterministicTranscriptAtK8) {
  EnabledGuard on(true);
  JournalGuard jg;
  std::string first = wide_journal_transcript(8);
  std::string second = wide_journal_transcript(8);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

// --- catchpoints: stop-the-world --------------------------------------------

// A catchpoint hit on one worker must stop every partition at a consistent
// point: the debugger's views read coherent state, and resuming completes
// the decode bit-exactly.
TEST(ParallelH264, CatchpointStopsAllPartitionsConsistently) {
  EnabledGuard on(true);
  JournalGuard jg;
  BackendGuard g(sim::ProcessBackend::kParallel, 2);
  auto built = H264App::build(small_decoder());
  ASSERT_TRUE(built.ok()) << built.status().message();
  auto& app = **built;
  ASSERT_EQ(app.kernel().backend(), sim::ProcessBackend::kParallel);
  ASSERT_EQ(app.kernel().partition_count(), 2);
  dbg::Session session(app.app());
  session.attach();
  app.start();
  auto bp = session.catch_work("mc");
  ASSERT_TRUE(bp.ok());

  int stops = 0;
  bool armed = true;
  for (;;) {
    dbg::RunOutcome out = session.run();
    if (out.result != sim::RunResult::kStopped) {
      EXPECT_EQ(out.result, sim::RunResult::kFinished);
      break;
    }
    stops++;
    // While stopped, every partition is quiescent: views are coherent.
    auto links = session.links_view();
    std::uint64_t pushes = 0, pops = 0;
    for (const dbg::LinkRow& l : links.links) {
      pushes += l.pushes;
      pops += l.pops;
      EXPECT_LE(l.occupancy, l.high_watermark);
    }
    EXPECT_GE(pushes, pops);
    // The scheduling monitor reports the active backend (satellite of the
    // same PR: `info sched` exposes backend + worker count).
    std::string sched = cli::render_or_error(session.sched_view("pred"));
    EXPECT_NE(sched.find("backend=parallel"), std::string::npos) << sched;
    EXPECT_NE(sched.find("workers=2"), std::string::npos) << sched;
    if (stops > 4 && armed) {  // enough stop/resume cycles; finish undisturbed
      ASSERT_TRUE(session.delete_breakpoint(*bp).ok());
      armed = false;
    }
  }
  EXPECT_GT(stops, 0);
  EXPECT_TRUE(app.decoded_matches_golden());
}

// --- shard time attribution ---------------------------------------------------

/// A small fixed-map wide world run to completion under kParallel.
std::unique_ptr<benchutil::WideWorld> run_attributed_wide(int workers) {
  WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = 64;
  cfg.spin = 256;
  cfg.fixed_partitions = true;
  auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
  benchutil::run_wide_world(*w);
  return w;
}

// The attribution invariant the profiler is built on: per round and per
// worker, work + barrier-wait + drain accounts for the round's wall time
// (the acceptance bar is +-5%; the construction makes it exact up to clock
// granularity). Round ids are strictly monotonic — the stream cursor.
TEST(ShardProfile, BucketsSumToRoundWall) {
  EnabledGuard on(true);
  JournalGuard jg;
  auto w = run_attributed_wide(4);
  const std::deque<sim::BarrierRoundRecord>& recs = w->kernel->round_records();
  ASSERT_FALSE(recs.empty());
  std::uint64_t prev_round = 0;
  for (const sim::BarrierRoundRecord& r : recs) {
    EXPECT_GT(r.round, prev_round);
    prev_round = r.round;
    ASSERT_EQ(r.partitions.size(), 4u);
    EXPECT_GE(r.wall_ns, r.drain_ns);
    const std::uint64_t tol = r.wall_ns / 20 + 1;  // +-5%
    for (const sim::BarrierRoundRecord::PartitionDelta& p : r.partitions) {
      const std::uint64_t sum = p.work_ns + p.wait_ns + r.drain_ns;
      EXPECT_LE(sum, r.wall_ns + tol) << "round " << r.round;
      EXPECT_GE(sum + tol, r.wall_ns) << "round " << r.round;
    }
  }
  // The cumulative totals are the ring summed (nothing evicted at this size),
  // and utilization-relevant buckets are all populated.
  for (int i = 0; i < 4; ++i) {
    sim::Kernel::ShardTotals t = w->kernel->shard_totals(i);
    std::uint64_t work = 0, wait = 0, drain = 0, dispatches = 0;
    for (const sim::BarrierRoundRecord& r : recs) {
      work += r.partitions[static_cast<std::size_t>(i)].work_ns;
      wait += r.partitions[static_cast<std::size_t>(i)].wait_ns;
      drain += r.drain_ns;
      dispatches += r.partitions[static_cast<std::size_t>(i)].dispatches;
    }
    EXPECT_EQ(t.work_ns, work) << "worker " << i;
    EXPECT_EQ(t.barrier_wait_ns, wait) << "worker " << i;
    EXPECT_EQ(t.drain_ns, drain) << "worker " << i;
    EXPECT_EQ(t.dispatches, dispatches) << "worker " << i;
    // Thread CPU time is measured over the same spans as work and never
    // exceeds it: the difference is time spent runnable but descheduled.
    EXPECT_LE(t.cpu_ns, t.work_ns) << "worker " << i;
  }
  // The registry mirrors the totals (interned per-worker instruments).
  auto& reg = obs::Registry::global();
  EXPECT_GT(reg.counter("sim.worker.0.work_ns").value(), 0u);
  EXPECT_GT(reg.counter("sim.worker.0.cpu_ns").value(), 0u);
  EXPECT_GT(reg.histogram("sim.barrier.round_wall_ns").count(), 0u);
}

// The zero-cost claim: with obs disabled the profiler takes no clock reads,
// allocates no records, and accumulates nothing.
TEST(ShardProfile, ZeroCostWhenObsDisabled) {
  EnabledGuard off(false);
  auto w = run_attributed_wide(2);
  EXPECT_TRUE(w->kernel->round_records().empty());
  for (int i = 0; i < 2; ++i) {
    sim::Kernel::ShardTotals t = w->kernel->shard_totals(i);
    EXPECT_EQ(t.work_ns, 0u);
    EXPECT_EQ(t.cpu_ns, 0u);
    EXPECT_EQ(t.barrier_wait_ns, 0u);
    EXPECT_EQ(t.drain_ns, 0u);
    EXPECT_EQ(t.idle_ns, 0u);
    EXPECT_EQ(t.stalled_rounds, 0u);
  }
}

TEST(ShardProfile, RoundRecordRingEvictsOldestAndCursorReads) {
  EnabledGuard on(true);
  JournalGuard jg;
  WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = 64;
  cfg.spin = 16;
  cfg.fixed_partitions = true;
  auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, 2);
  w->kernel->set_round_record_capacity(2);
  benchutil::run_wide_world(*w);
  const auto& recs = w->kernel->round_records();
  ASSERT_LE(recs.size(), 2u);
  ASSERT_FALSE(recs.empty());
  // Cursor semantics: everything after the newest round is empty; `after`
  // one before the newest returns exactly the newest.
  const std::uint64_t newest = recs.back().round;
  EXPECT_TRUE(w->kernel->round_records_after(newest, 16).empty());
  auto tail = w->kernel->round_records_after(newest - 1, 16);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].round, newest);
  EXPECT_EQ(tail[0].partitions.size(), recs.back().partitions.size());
}

// --- Perfetto shard export ----------------------------------------------------

/// Canonicalizes the shard trace for structure comparison: every ts value
/// (wall-clock measurement) is replaced by "T", everything else — track
/// names, slice nesting, rounds, dispatch counts, stall markers — is kept.
std::string strip_timestamps(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size();) {
    if (json.compare(i, 5, "\"ts\":") == 0) {
      out += "\"ts\":T";
      i += 5;
      while (i < json.size() && (std::isdigit(static_cast<unsigned char>(json[i])) != 0)) i++;
      continue;
    }
    if (json.compare(i, 10, "\"wait_ns\":") == 0) {
      out += "\"wait_ns\":T";
      i += 10;
      while (i < json.size() && (std::isdigit(static_cast<unsigned char>(json[i])) != 0)) i++;
      continue;
    }
    out += json[i++];
  }
  return out;
}

// One named track per worker plus the barrier track, ROUND/BARRIER slices
// balanced per track, and — timestamps stripped — the structure is a pure
// function of the deterministic schedule, byte-identical run to run.
TEST(ShardProfile, PerfettoExportStructureIsDeterministic) {
  EnabledGuard on(true);
  JournalGuard jg;
  auto w1 = run_attributed_wide(4);
  std::string json = trace::export_shard_chrome_trace(*w1->kernel);
  for (int i = 0; i < 4; ++i)
    EXPECT_NE(json.find(strformat("\"name\":\"worker %d\"", i)), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ROUND\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"BARRIER\""), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"wall-ns\""), std::string::npos);
  // B/E balance per tid.
  std::map<std::string, int> depth;
  std::stringstream ss(json);
  std::string line;
  while (std::getline(ss, line)) {
    auto tid_at = line.find("\"tid\":");
    if (tid_at == std::string::npos) continue;
    std::string tid = line.substr(tid_at + 6, line.find_first_of(",}", tid_at + 6) - tid_at - 6);
    if (line.find("\"ph\":\"B\"") != std::string::npos) depth[tid]++;
    if (line.find("\"ph\":\"E\"") != std::string::npos) {
      depth[tid]--;
      EXPECT_GE(depth[tid], 0) << line;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unbalanced tid " << tid;

  auto w2 = run_attributed_wide(4);
  std::string json2 = trace::export_shard_chrome_trace(*w2->kernel);
  EXPECT_EQ(strip_timestamps(json), strip_timestamps(json2));
}

TEST(ShardProfile, PerfettoExportEmptyRingIsMetadataOnly) {
  EnabledGuard off(false);
  auto w = run_attributed_wide(2);
  std::string json = trace::export_shard_chrome_trace(*w->kernel);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"ROUND\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":0"), std::string::npos);
}

/// Sums a per-shard counter over every partition of a finished wide world.
template <typename F>
std::uint64_t sum_shards(const benchutil::WideWorld& w, F get) {
  std::uint64_t total = 0;
  for (int i = 0; i < w.kernel->partition_count(); ++i) total += get(w.kernel->shard_totals(i));
  return total;
}

// Shards with an empty ready queue are not woken: on the latency-modeled
// graph (many small rounds between timed wakeups) some shard sits out some
// round. The count is scheduling state, kept with obs off too; with obs on
// the interned metrics mirror it, and the round records flag the skipped
// partitions with zeroed work.
TEST(ShardProfile, IdleShardsStayParked) {
  EnabledGuard on(true);
  JournalGuard jg;
  WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = 64;
  cfg.spin = 256;
  cfg.fixed_partitions = true;
  // The registry instruments are process-global and cumulative; snapshot
  // before the run so the checks below compare this run's deltas.
  auto& reg = obs::Registry::global();
  std::uint64_t m_skipped = 0;
  for (int i = 0; i < 4; ++i)
    m_skipped -= reg.counter(strformat("sim.worker.%d.skipped_wakes", i)).value();
  auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, 4);
  w->app->set_model_latencies(true);
  w->kernel->set_round_record_capacity(1 << 15);  // keep every round: exact sums below
  benchutil::run_wide_world(*w);
  EXPECT_EQ(benchutil::sink_checksum(*w), benchutil::wide_expected_checksum(cfg));
  const std::uint64_t skipped =
      sum_shards(*w, [](const sim::Kernel::ShardTotals& t) { return t.skipped_wakes; });
  EXPECT_GT(skipped, 0u) << "every shard was woken for every round";
  for (int i = 0; i < 4; ++i)
    m_skipped += reg.counter(strformat("sim.worker.%d.skipped_wakes", i)).value();
  EXPECT_EQ(m_skipped, skipped);
  const auto& recs = w->kernel->round_records();
  ASSERT_EQ(recs.size(), w->kernel->round_count());
  std::uint64_t rec_skipped = 0;
  for (const sim::BarrierRoundRecord& r : recs) {
    for (const auto& p : r.partitions) {
      if (!p.skipped) continue;
      rec_skipped++;
      EXPECT_EQ(p.work_ns, 0u);
      EXPECT_EQ(p.dispatches, 0u);
      EXPECT_FALSE(p.stalled);
    }
  }
  EXPECT_EQ(rec_skipped, skipped);
  EXPECT_EQ(w->kernel->elided_round_count(), 0u);
}

// --- documented metrics -------------------------------------------------------

/// "<name> <kind>" for `name`, with a worker index folded to N so
/// `sim.worker.3.work_ns` reads as the documented `sim.worker.N.work_ns`.
std::string metric_row(std::string name, const char* kind) {
  const std::string prefix = "sim.worker.";
  if (name.compare(0, prefix.size(), prefix) == 0) {
    std::size_t end = prefix.size();
    while (end < name.size() && std::isdigit(static_cast<unsigned char>(name[end])) != 0) end++;
    if (end > prefix.size() && end < name.size() && name[end] == '.')
      name.replace(prefix.size(), end - prefix.size(), "N");
  }
  return name + " " + kind;
}

// The `sim.*` rows of docs/OBSERVABILITY.md's taxonomy are exactly the
// instruments an observed K=4 run registers, kinds included: a metric that
// is renamed, added or deleted must take its documentation row with it.
TEST(ShardProfile, SimMetricsMatchObservabilityDoc) {
  EnabledGuard on(true);
  JournalGuard jg;
  run_attributed_wide(4);
  std::set<std::string> registered;
  const obs::Registry& reg = obs::Registry::global();
  for (const auto& [name, c] : reg.counters())
    if (name.compare(0, 4, "sim.") == 0) registered.insert(metric_row(name, "counter"));
  for (const auto& [name, g] : reg.gauges())
    if (name.compare(0, 4, "sim.") == 0) registered.insert(metric_row(name, "gauge"));
  for (const auto& [name, h] : reg.histograms())
    if (name.compare(0, 4, "sim.") == 0) registered.insert(metric_row(name, "histogram"));

  std::ifstream doc(std::string(DFDBG_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(doc.good());
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    // | `sim.dispatch` | counter | meaning |
    if (line.compare(0, 7, "| `sim.") != 0) continue;
    const std::size_t name_end = line.find('`', 3);
    const std::size_t kind_at = line.find("| ", name_end) + 2;
    const std::string name = line.substr(3, name_end - 3);
    const std::string kind = line.substr(kind_at, line.find(' ', kind_at) - kind_at);
    documented.insert(name + " " + kind);
  }
  EXPECT_EQ(documented, registered);
}

}  // namespace
}  // namespace dfdbg
