// End-to-end benchmark of the dataflow debugger: the H.264 decode native,
// under a full debug session and under the trace collector; the wide graph
// on fibers and at K parallel workers; and a debug session driven over the
// socket server. Every round runs each arm once, in turn, so all arms see
// the same host stretches; each end-to-end time is the 10th percentile of
// its per-operation times over the run.
//
//   perfbench --workload paper --seed 1 --seconds 30 --trace 0
//   perfbench --selftest
//
// The last line of standard output is the result as one JSON object.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/kernel.hpp"
#include "runner.hpp"

namespace {

using perfbench::Runner;
using perfbench::SampleMap;
using perfbench::Workload;

/// The workloads. Both run every arm; their inputs come from existing
/// callers of the same code.
bool find_workload(const std::string& name, Workload* w) {
  w->name = name;
  // The defaults: the paper's decoder (64x64 px, 4 frames, qp 20) and the
  // wide graph of bench/bench_scaling.cpp's BM_ParallelScaling.
  if (name == "paper") return true;
  if (name == "small") {
    // benchutil::decoder_config()'s defaults (bench/bench_util.hpp: 2x2
    // macroblocks, 2 frames, qp 20) and BM_ParallelElision's wide graph
    // (bench/bench_scaling.cpp: 4 lanes x 2 stages, 64 tokens, spin 256).
    w->width = 32;
    w->height = 32;
    w->frames = 2;
    w->lanes = 4;
    w->tokens = 64;
    w->spin = 256;
    return true;
  }
  return false;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_table(const char* title, const SampleMap& m) {
  std::printf("%-34s %7s %12s %12s %12s\n", title, "n", "p10", "p50", "p90");
  for (const auto& [name, s] : m)
    std::printf("%-34s %7zu %12.4f %12.4f %12.4f\n", name.c_str(), s.size(), s.quantile(0.1),
                s.quantile(0.5), s.quantile(0.9));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

double p10(const SampleMap& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second.quantile(0.1);
}

double median(const SampleMap& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second.quantile(0.5);
}

/// The self-test: clean operations must pass, and every check must reject
/// the fault made to trip it.
int selftest() {
  int bad = 0;
  auto expect = [&](const char* what, const std::string& err, bool want_fail,
                    const char* needle) {
    const bool failed = !err.empty();
    const bool ok = failed == want_fail && (!want_fail || err.find(needle) != std::string::npos);
    std::printf("%s %-44s %s\n", ok ? "ok  " : "FAIL", what,
                err.empty() ? "(passed)" : err.c_str());
    bad += ok ? 0 : 1;
  };
  Workload w;
  find_workload("paper", &w);
  Runner clean(w);
  if (std::string e = clean.cold_setup(); !e.empty()) {
    std::printf("FAIL set-up: %s\n", e.c_str());
    return 1;
  }
  clean.prepare();
  expect("native decode", clean.native_decode(false), false, "");
  expect("debug decode", clean.debug_decode(false), false, "");
  expect("trace decode", clean.trace_decode(false), false, "");
  expect("wide graph, fibers", clean.wide(false, false), false, "");
  expect("wide graph, K workers", clean.wide(true, false), false, "");
  expect("remote session", clean.remote_session(false), false, "");
  expect("in-process session", clean.inproc_session(false), false, "");
  expect("loopback echo", clean.loopback_echo(false), false, "");

  Workload corrupt = w;
  corrupt.fault = dfdbg::h264::FaultPlan::Kind::kCorruptSplitter;
  Runner rc(corrupt);
  rc.prepare();
  expect("corrupt splitter: native frames", rc.native_decode(false), true, "differs");
  expect("corrupt splitter: remote frames", rc.remote_session(false), true, "differs");
  Workload skip = w;
  skip.fault = dfdbg::h264::FaultPlan::Kind::kSkipIpf;
  Runner rs(skip);
  rs.prepare();
  expect("skip ipf: debug stops", rs.debug_decode(false), true, "debug stops");
  expect("skip ipf: remote stops", rs.remote_session(false), true, "stops");

  // The wide sink with one token altered must miss the host checksum.
  auto world = perfbench::build_wide(w, /*parallel=*/false, w.spin);
  world->app->start();
  world->kernel->run();
  std::uint64_t sum = 0;
  for (const dfdbg::pedf::Value& v : world->sink->received()) sum += v.as_u64();
  const std::uint64_t want = perfbench::wide_reference_checksum(w);
  expect("wide sink checksum", perfbench::check_count("wide sink checksum", sum, want), false, "");
  expect("wide sink, one token altered",
         perfbench::check_count("wide sink checksum", sum + 1, want), true, "checksum");

  // The remaining checks take plain data; each is fed a clean input and a
  // tampered one.
  using perfbench::LinkCount;
  expect("link conservation, one token lost",
         perfbench::check_conservation({{"a::o -> b::i", 10, 7, 0, 2}}), true, "occupancy");
  expect("link conservation, removal counted",
         perfbench::check_conservation({{"a::o -> b::i", 10, 7, 1, 2}}), false, "");
  const std::vector<LinkCount> links = {{"a::o -> b::i", 10, 7, 0, 3}};
  expect("trace counts equal the links", perfbench::check_trace_counts(links, links), false, "");
  expect("trace counts, one pop missed",
         perfbench::check_trace_counts({{"a::o -> b::i", 10, 6, 0, 3}}, links), true,
         "trace counted");
  expect("inject +1, remove restores", perfbench::check_inject_remove(3, 4, 3), false, "");
  expect("inject without effect", perfbench::check_inject_remove(3, 3, 3), true, "inject");
  expect("remove without effect", perfbench::check_inject_remove(3, 4, 4), true, "remove");
  expect("CSV, header + one row per event", perfbench::check_csv_rows("h\nr1\nr2\n", 2), false,
         "");
  expect("CSV, one row missing", perfbench::check_csv_rows("h\nr1\n", 2), true, "CSV rows");
  expect("run events, one per stop + final", perfbench::check_count("run events", 65, 64 + 1),
         false, "");
  expect("run events, one missing", perfbench::check_count("run events", 64, 64 + 1), true,
         "run events");

  perfbench::JournalTally tally{100, 200, 99, 0, 0};
  expect("journal, one event missing", perfbench::check_journal(tally, 200), true, "delivered");
  tally.gaps = 1;
  expect("journal, loss reported as a gap", perfbench::check_journal(tally, 200), false, "");
  // Deltas as the server pushes them: a clean stream with a reported gap,
  // then one that skips an event without reporting it.
  auto delta = [](int from, int next, int gap, int events) {
    std::string f = R"({"jsonrpc":"2.0","method":"journal.delta","params":{"session":1,"from":)" +
                    std::to_string(from) + R"(,"next":)" + std::to_string(next) +
                    R"(,"gap":)" + std::to_string(gap) + R"(,"events":[)";
    for (int i = 0; i < events; ++i)
      f += std::string(i == 0 ? "" : ",") + R"({"t":0,"kind":"push"})";
    return f + "]}}";
  };
  perfbench::JournalTally stream{100, 100, 0, 0, 0};
  perfbench::tally_journal_delta(delta(100, 102, 0, 2), &stream);
  perfbench::tally_journal_delta(delta(105, 106, 3, 1), &stream);
  expect("journal deltas with a gap", perfbench::check_journal(stream, 106), false, "");
  perfbench::tally_journal_delta(delta(107, 108, 0, 1), &stream);
  expect("journal delta skipping an event", perfbench::check_journal(stream, 108), true,
         "disagree");
  perfbench::JournalTally short_delta{100, 100, 0, 0, 0};
  perfbench::tally_journal_delta(delta(100, 103, 0, 2), &short_delta);
  expect("journal delta short of its cursors", perfbench::check_journal(short_delta, 103), true,
         "disagree");
  dfdbg::JsonValue doc;
  expect("response without result",
         perfbench::check_response(R"({"jsonrpc":"2.0","id":3,"error":{"code":-1}})", 3, &doc),
         true, "no result");
  expect("response with another id",
         perfbench::check_response(R"({"jsonrpc":"2.0","id":4,"result":{}})", 3, &doc), true,
         "echo");
  std::printf("%s\n", bad == 0 ? "selftest: every check passed clean runs and rejected its fault"
                               : "selftest: FAILED");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper|small --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start = perfbench::now_ns();
  dfdbg::sim::set_default_process_backend(dfdbg::sim::ProcessBackend::kFibers);
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::atoll(v);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--trace-out") trace_out = v;
    else return usage();
  }
  Workload w;
  if (!find_workload(workload, &w) || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();
  w.seed = static_cast<std::uint64_t>(seed);

  Runner r(w);
  if (std::string e = r.cold_setup(); !e.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", e.c_str());
    return 1;
  }
  const double setup_s = static_cast<double>(perfbench::now_ns() - start) / 1e9;
  r.prepare();

  // Whole rounds until the time is up. A traced run alternates untraced
  // and traced rounds, so the tracing overhead is measured on the same
  // host stretches.
  using Arm = std::function<std::string(bool)>;
  std::vector<std::pair<const char*, Arm>> arms = {
      {"native_decode", [&](bool t) { return r.native_decode(t); }},
      {"debug_decode", [&](bool t) { return r.debug_decode(t); }},
      {"trace_decode", [&](bool t) { return r.trace_decode(t); }},
      {"wide_fibers", [&](bool t) { return r.wide(false, t); }},
      {"wide_k4", [&](bool t) { return r.wide(true, t); }},
      {"remote_session", [&](bool t) { return r.remote_session(t); }},
      {"loopback_echo", [&](bool t) { return r.loopback_echo(t); }},
  };
  if (trace == 1) arms.emplace_back("inproc_session", [&](bool t) { return r.inproc_session(t); });
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t deadline = perfbench::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t min_rounds = trace == 1 ? 2 : 1;  // a traced run needs both kinds
  for (std::uint64_t round = 0; round < min_rounds || perfbench::now_ns() < deadline; ++round) {
    const bool traced = trace == 1 && round % 2 == 1;
    for (auto& [name, arm] : arms) {
      if (traced) r.tracer().begin_op();
      const std::string err = arm(traced);
      ++attempted;
      if (!err.empty()) {
        ++failed;
        std::fprintf(stderr, "round %llu %s failed: %s\n", static_cast<unsigned long long>(round),
                     name, err.c_str());
      }
    }
  }

  const SampleMap& e2e = r.times(false);
  print_table("end-to-end (untraced rounds)", e2e);
  std::vector<Metric> metrics;
  const char* const timed[] = {"native_decode_ms",  "debug_decode_ms",   "trace_decode_ms",
                               "wide_fibers_ms",    "wide_k4_ms",        "session_decode_ms",
                               "info_links_rtt_us", "whence_rtt_us",     "inject_rtt_us",
                               "echo_rtt_us"};
  auto ratio = [&](const char* a, const char* b) {
    const double base = p10(e2e, b);
    return base > 0 ? p10(e2e, a) / base : 0.0;
  };
  if (trace == 0) {
    // The remote path is counted in loopback echo round trips, timed in the
    // same rounds: the echo runs no program code, and the host's socket and
    // wake-up speed drifts between runs minutes apart.
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
        {"native_decode_ms", p10(e2e, "native_decode_ms"), "ms"},
        {"debug_decode_ms", p10(e2e, "debug_decode_ms"), "ms"},
        {"trace_decode_ms", p10(e2e, "trace_decode_ms"), "ms"},
        {"wide_fibers_ms", p10(e2e, "wide_fibers_ms"), "ms"},
        {"wide_k4_ms", p10(e2e, "wide_k4_ms"), "ms"},
        {"session_decode_echoes", ratio("session_decode_ms", "echo_rtt_us") * 1e3, "x"},
        {"info_links_rtt_echoes", ratio("info_links_rtt_us", "echo_rtt_us"), "x"},
        {"whence_rtt_echoes", ratio("whence_rtt_us", "echo_rtt_us"), "x"},
        {"inject_rtt_echoes", ratio("inject_rtt_us", "echo_rtt_us"), "x"},
    };
  } else {
    const SampleMap& traced = r.times(true);
    const SampleMap& l = r.layer();
    print_table("end-to-end (traced rounds)", traced);
    print_table("per layer", l);
    auto& reg = dfdbg::obs::Registry::global();
    std::printf("obs registry counters at the end of the run:\n");
    for (const auto& [name, c] : reg.counters())
      std::printf("  %-40s %llu\n", name.c_str(), static_cast<unsigned long long>(c->value()));

    const double native = p10(e2e, "native_decode_ms");
    const double dispatches = median(l, "sim.dispatches");
    const double hooks = median(l, "sim.hook_invocations");
    const double events = median(l, "trace.events");
    // The remote path's absolute 10th percentiles (untraced rounds), and
    // the arms' ratios: the paper's intrusiveness and the K = 4 speed-up.
    for (const char* name : {"session_decode_ms", "info_links_rtt_us", "whence_rtt_us",
                             "inject_rtt_us", "echo_rtt_us"})
      metrics.push_back({std::string("p10.") + name, p10(e2e, name),
                         std::string_view(name).ends_with("_us") ? "us" : "ms"});
    const std::vector<Metric> layers = {
        {"debug_slowdown", ratio("debug_decode_ms", "native_decode_ms"), "x"},
        {"trace_slowdown", ratio("trace_decode_ms", "native_decode_ms"), "x"},
        {"k4_time_ratio", ratio("wide_k4_ms", "wide_fibers_ms"), "x"},
        {"mind.parse_ms", median(l, "mind.parse_ms"), "ms"},
        {"h264.build_ms", median(l, "h264.build_ms"), "ms"},
        {"debug.attach_us", median(l, "debug.attach_us"), "us"},
        {"sim.dispatches", dispatches, "count"},
        {"sim.ns_per_dispatch", dispatches > 0 ? native * 1e6 / dispatches : 0.0, "ns"},
        {"pedf.link_pushes", median(l, "pedf.link_pushes"), "count"},
        {"sim.hook_invocations", hooks, "count"},
        {"debug.ns_per_hook",
         hooks > 0 ? (p10(e2e, "debug_decode_ms") - native) * 1e6 / hooks : 0.0, "ns"},
        {"debug.stop_resume_us", median(l, "debug.stop_resume_us"), "us"},
        {"obs.journal_events", median(l, "obs.journal_events"), "count"},
        {"trace.events", events, "count"},
        {"trace.ns_per_event",
         events > 0 ? (p10(e2e, "trace_decode_ms") - native) * 1e6 / events : 0.0, "ns"},
        {"trace.csv_ms", median(l, "trace.csv_ms"), "ms"},
        {"sim.rounds", median(l, "sim.rounds"), "count"},
        {"sim.elided_rounds", median(l, "sim.elided_rounds"), "count"},
        {"pedf.boundary_tokens", median(l, "pedf.boundary_tokens"), "count"},
        {"sim.k4_cpu_per_wall", median(l, "sim.k4_cpu_per_wall"), "ratio"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    for (int p = 0; p < w.workers; ++p) {
      const std::string k = "sim.worker." + std::to_string(p);
      metrics.push_back({k + ".work_ms", median(l, k + ".work_ms"), "ms"});
      metrics.push_back({k + ".wait_ms", median(l, k + ".wait_ms"), "ms"});
    }
    for (const char* verb : {"info_links", "whence", "inject"})
      metrics.push_back({std::string("server.handle_frame_us.") + verb,
                         median(l, std::string("server.handle_frame_us.") + verb), "us"});
    metrics.push_back(
        {"server.request_us_p50",
         static_cast<double>(reg.histogram("server.request_ns").percentile(0.5)) / 1e3, "us"});
    for (const char* verb : {"info_links", "whence"})
      metrics.push_back({std::string("server.response_bytes.") + verb,
                         median(l, std::string("server.response_bytes.") + verb), "bytes"});
    metrics.push_back({"server.notifications", median(l, "server.notifications"), "count"});
    metrics.push_back({"server.sub_dropped", median(l, "server.sub_dropped"), "count"});
    // Tracing overhead: traced against untraced rounds of this run.
    for (const char* name : timed) {
      const double base = p10(e2e, name);
      metrics.push_back({std::string("tracing_overhead_pct.") + name,
                         base > 0 ? (p10(traced, name) / base - 1) * 100 : 0.0, "%"});
    }
    if (!trace_out.empty()) {
      if (!r.tracer().write_chrome_trace(trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", r.tracer().size(), trace_out.c_str());
    }
  }
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("perfbench-build: {\"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n", compiler,
              __VERSION__, PERFBENCH_BUILD_TYPE);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
