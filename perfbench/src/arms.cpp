// The in-process arms: the H.264 decode native, under a full debug session
// and under the trace collector, and the wide graph on fibers and at K
// parallel workers.
#include <memory>

#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/refcodec.hpp"
#include "dfdbg/mind/parser.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/boundary.hpp"
#include "dfdbg/trace/trace.hpp"
#include "runner.hpp"

namespace perfbench {

using namespace dfdbg;

namespace {

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

/// Builds a decoder world, timing the build as a layer sample.
std::unique_ptr<h264::H264App> build_decoder(const Workload& w, SampleMap& layer, Tracer* t,
                                             std::string* err) {
  Tracer::Scope span(t, "h264.build");
  const std::int64_t t0 = now_ns();
  auto built = h264::H264App::build(w.decoder_config());
  if (!built.ok()) {
    *err = "decoder build failed: " + built.status().message();
    return nullptr;
  }
  layer["h264.build_ms"].add(ms_since(t0));
  return std::move(*built);
}

std::vector<LinkCount> link_counts(const pedf::Application& app) {
  std::vector<LinkCount> out;
  for (const auto& l : app.links())
    out.push_back({l->name(), l->push_index(), l->pop_index(), 0, l->occupancy()});
  return out;
}

/// Every failed check of an operation, joined.
std::string failures(std::initializer_list<std::string> errs) {
  std::string out;
  for (const std::string& e : errs)
    if (!e.empty()) out += (out.empty() ? "" : "; ") + e;
  return out;
}

}  // namespace

std::unique_ptr<benchutil::WideWorld> build_wide(const Workload& w, bool parallel,
                                                 std::uint32_t spin) {
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = w.lanes;
  cfg.stages = w.stages;
  cfg.tokens = static_cast<std::size_t>(w.tokens);
  cfg.spin = spin;
  cfg.seed = w.wide_seed();
  return benchutil::build_wide_world(
      cfg, parallel ? sim::ProcessBackend::kParallel : sim::ProcessBackend::kFibers,
      parallel ? w.workers : 0);
}

std::string Runner::cold_setup() {
  if (std::string e = remote(false, /*setup_only=*/true); !e.empty()) return e;
  // The spin count changes only the stage work and the host-side checksum
  // that build_wide_world precomputes, not the graph, so a spin of 1 times
  // the graph build and elaboration without that precompute.
  build_wide(w_, /*parallel=*/true, /*spin=*/1);
  return {};
}

void Runner::prepare() {
  const h264::CodecParams p = w_.decoder_config().params;
  h264::Encoder enc(p);
  enc.encode(h264::make_test_video(p.width, p.height, p.frame_count, w_.seed));
  want_frames_ = enc.reconstructed();
  want_checksum_ = wide_reference_checksum(w_);
}

std::string Runner::native_decode(bool traced) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, "op.native_decode");
  obs::set_enabled(traced);
  {
    Tracer::Scope span(t, "mind.parse");
    const std::int64_t t0 = now_ns();
    auto doc = mind::parse(h264::kH264Adl);
    if (!doc.ok()) return "ADL parse failed: " + doc.status().message();
    layer_["mind.parse_ms"].add(ms_since(t0));
  }
  std::string err;
  auto app = build_decoder(w_, layer_, t, &err);
  if (app == nullptr) return err;
  app->start();
  const std::int64_t t0 = now_ns();
  sim::RunResult r;
  {
    Tracer::Scope span(t, "sim.run");
    r = app->kernel().run();
  }
  times(traced)["native_decode_ms"].add(ms_since(t0));
  obs::set_enabled(false);

  std::uint64_t pushes = 0;
  for (const auto& l : app->app().links()) pushes += l->push_index();
  layer_["sim.dispatches"].add(static_cast<double>(app->kernel().dispatch_count()));
  layer_["pedf.link_pushes"].add(static_cast<double>(pushes));
  return failures({r == sim::RunResult::kFinished
                          ? std::string()
                          : std::string("native decode ended ") + sim::to_string(r),
                      check_frames(app->store().decoded, want_frames_),
                      check_conservation(link_counts(app->app()))});
}

std::string Runner::debug_decode(bool traced) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, "op.debug_decode");
  // The debugger runs with obs and the journal on, as the CLI and the
  // server run it.
  obs::set_enabled(true);
  std::string err;
  auto app = build_decoder(w_, layer_, t, &err);
  if (app == nullptr) return err;
  dbg::Session session(app->app());
  {
    Tracer::Scope span(t, "debug.attach");
    const std::int64_t t0 = now_ns();
    session.attach();
    layer_["debug.attach_us"].add(ms_since(t0) * 1e3);
  }
  if (!session.catch_work("ipf").ok()) return "catch_work ipf refused";
  app->start();
  const std::uint64_t journal0 = obs::Journal::global().cursor();
  std::uint64_t stops = 0;
  sim::RunResult last = sim::RunResult::kStopped;
  const std::int64_t t0 = now_ns();
  while (last == sim::RunResult::kStopped) {
    Tracer::Scope span(t, "debug.run");
    const std::int64_t r0 = now_ns();
    dbg::RunOutcome out = session.run();
    last = out.result;
    if (last == sim::RunResult::kStopped) {
      stops += out.stops.size();
      layer_["debug.stop_resume_us"].add(ms_since(r0) * 1e3);
    }
  }
  times(traced)["debug_decode_ms"].add(ms_since(t0));
  obs::set_enabled(false);

  layer_["sim.hook_invocations"].add(
      static_cast<double>(app->kernel().instrument().hook_invocations()));
  layer_["obs.journal_events"].add(
      static_cast<double>(obs::Journal::global().cursor() - journal0));
  return failures(
      {last == sim::RunResult::kFinished
           ? std::string()
           : std::string("debug decode ended ") + sim::to_string(last),
       check_count("debug stops", stops, static_cast<std::uint64_t>(w_.macroblocks())),
       check_frames(app->store().decoded, want_frames_),
       check_conservation(link_counts(app->app()))});
}

std::string Runner::trace_decode(bool traced) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, "op.trace_decode");
  obs::set_enabled(traced);
  std::string err;
  auto app = build_decoder(w_, layer_, t, &err);
  if (app == nullptr) return err;
  trace::TraceCollector collector(app->app(), std::size_t{1} << 17, /*record_payloads=*/true);
  collector.attach();
  app->start();
  const std::int64_t t0 = now_ns();
  sim::RunResult r;
  {
    Tracer::Scope span(t, "sim.run");
    r = app->kernel().run();
  }
  const std::int64_t t1 = now_ns();
  std::string csv;
  {
    Tracer::Scope span(t, "trace.to_csv");
    csv = collector.to_csv();
  }
  times(traced)["trace_decode_ms"].add(ms_since(t0));
  layer_["trace.csv_ms"].add(ms_since(t1));
  layer_["trace.events"].add(static_cast<double>(collector.total_events()));
  obs::set_enabled(false);

  // The collector's own push/pop counts must match the framework's link
  // indexes, and conserve tokens.
  std::vector<LinkCount> seen;
  for (const auto& l : app->app().links()) {
    auto it = collector.link_stats().find(l->id().value());
    const trace::LinkStats st =
        it == collector.link_stats().end() ? trace::LinkStats{} : it->second;
    seen.push_back({l->name(), st.pushes, st.pops, 0, l->occupancy()});
  }
  return failures({r == sim::RunResult::kFinished
                          ? std::string()
                          : std::string("trace decode ended ") + sim::to_string(r),
                      check_count("trace events dropped", collector.dropped(), 0),
                      check_csv_rows(csv, collector.events().size()),
                      check_trace_counts(seen, link_counts(app->app())),
                      check_frames(app->store().decoded, want_frames_)});
}

std::string Runner::wide(bool parallel, bool traced) {
  Tracer* t = spans(traced);
  Tracer::Scope op(t, parallel ? "op.wide_k" : "op.wide_fibers");
  obs::set_enabled(traced);
  std::unique_ptr<benchutil::WideWorld> world;
  {
    Tracer::Scope span(t, "wide.build");
    world = build_wide(w_, parallel, w_.spin);
  }
  world->app->start();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  sim::RunResult r;
  {
    Tracer::Scope span(t, "sim.run");
    r = world->kernel->run();
  }
  const double wall_ms = ms_since(t0);
  const double cpu_ms = static_cast<double>(process_cpu_ns() - cpu0) / 1e6;
  times(traced)[parallel ? "wide_k4_ms" : "wide_fibers_ms"].add(wall_ms);
  obs::set_enabled(false);

  if (parallel) {
    sim::Kernel& k = *world->kernel;
    std::uint64_t boundary = 0;
    for (const auto& b : world->app->boundaries()) boundary += b->sent();
    layer_["sim.rounds"].add(static_cast<double>(k.round_count()));
    layer_["sim.elided_rounds"].add(static_cast<double>(k.elided_round_count()));
    layer_["pedf.boundary_tokens"].add(static_cast<double>(boundary));
    layer_["sim.k4_cpu_per_wall"].add(cpu_ms / wall_ms);
    if (traced) {  // the shard attribution is recorded only with obs on
      for (int p = 0; p < k.partition_count(); ++p) {
        const sim::Kernel::ShardTotals s = k.shard_totals(p);
        const std::string key = "sim.worker." + std::to_string(p);
        layer_[key + ".work_ms"].add(static_cast<double>(s.work_ns) / 1e6);
        layer_[key + ".wait_ms"].add(static_cast<double>(s.barrier_wait_ns) / 1e6);
      }
    }
  }
  std::uint64_t sum = 0;
  for (const pedf::Value& v : world->sink->received()) sum += v.as_u64();
  return failures(
      {r == sim::RunResult::kDeadlock || r == sim::RunResult::kFinished
           ? std::string()
           : std::string("wide graph ended ") + sim::to_string(r),
       check_count("wide sink tokens", world->sink->received().size(),
                   static_cast<std::uint64_t>(w_.lanes) * static_cast<std::uint64_t>(w_.tokens)),
       check_count("wide sink checksum", sum, want_checksum_)});
}

}  // namespace perfbench
