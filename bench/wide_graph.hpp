// Seeded wide synthetic dataflow graphs: N independent pipelines fanning
// into one sink. The shape is the scaling counterpart of the H.264 decoder —
// embarrassingly parallel stage work with a single serialization point — and
// is what the parallel backend's per-cluster partitioning is built for: each
// pipeline maps onto its own cluster, so the default partition map spreads
// pipelines across workers.
//
// Kept separate from bench_util.hpp so tests can build these graphs without
// pulling in the google-benchmark headers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/pedf/application.hpp"
#include "dfdbg/pedf/filter.hpp"
#include "dfdbg/pedf/module.hpp"
#include "dfdbg/sim/kernel.hpp"
#include "dfdbg/sim/platform.hpp"

namespace dfdbg::benchutil {

/// Deterministic CPU burn: `iters` xorshift rounds over `seed`. This is the
/// per-token "work" of a stage — pure integer mixing, no memory traffic, so
/// speedup measurements isolate the kernel's scheduling overhead.
inline std::uint32_t spin_work(std::uint32_t iters, std::uint32_t seed) {
  std::uint32_t x = seed | 1u;
  for (std::uint32_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
  }
  return x;
}

/// One xorshift32 step (never returns 0 for nonzero input).
inline std::uint32_t wide_next(std::uint32_t x) {
  if (x == 0) x = 1;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return x;
}

/// What every stage does to a token: order-preserving (+1 keeps pipelines
/// checkable) but dependent on the spin result, so the busy work cannot be
/// optimized away and the sink checksum pins the computation end to end.
inline std::uint32_t stage_transform(std::uint32_t v, std::uint32_t spin) {
  return v + 1u + (spin_work(spin, v) & 1u);
}

struct WideGraphConfig {
  int pipelines = 8;           ///< N parallel lanes (one platform cluster each)
  int stages = 2;              ///< filters per lane
  std::size_t tokens = 128;    ///< tokens per lane
  std::uint32_t spin = 512;    ///< spin_work iterations per token per stage
  std::uint32_t seed = 1;      ///< payload PRNG seed
  /// When true, installs an explicit per-pipeline partition map
  /// (set_partition(stage, pipeline % workers)) instead of relying on the
  /// platform's cluster-derived default. The two coincide on this topology;
  /// tests use the explicit form to pin determinism to a fixed map.
  bool fixed_partitions = false;
};

struct WideWorld {
  WideGraphConfig cfg;
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<pedf::Application> app;
  pedf::HostSink* sink = nullptr;
  std::uint64_t expected_tokens = 0;
};

/// The payload stream of pipeline `p` (recomputable host-side).
inline std::uint32_t wide_payload_seed(const WideGraphConfig& cfg, int p) {
  return cfg.seed ^ (0x9E3779B9u * static_cast<std::uint32_t>(p + 1));
}

/// The order-independent sum of the payloads the sink must see: every lane's
/// stream run through every stage transform on the host. Costs as much as
/// the graph's own stage work, so only verifiers call it.
inline std::uint64_t wide_expected_checksum(const WideGraphConfig& cfg) {
  std::uint64_t sum = 0;
  for (int p = 0; p < cfg.pipelines; ++p) {
    std::uint32_t x = wide_payload_seed(cfg, p);
    for (std::size_t j = 0; j < cfg.tokens; ++j) {
      x = wide_next(x);
      std::uint32_t v = x;
      for (int s = 0; s < cfg.stages; ++s) v = stage_transform(v, cfg.spin);
      sum += v;
    }
  }
  return sum;
}

/// Builds the graph on a fresh kernel of the given backend, elaborated and
/// ready for start(). Platform: one cluster per pipeline, one PE per stage
/// (plus one for the fan-in merge on cluster 0), so no two stage filters
/// share a PE and the cluster-modulo default map partitions by pipeline.
inline std::unique_ptr<WideWorld> build_wide_world(
    const WideGraphConfig& cfg, sim::ProcessBackend backend = sim::default_process_backend(),
    int workers = 0) {
  DFDBG_CHECK(cfg.pipelines >= 1 && cfg.stages >= 1);
  auto w = std::make_unique<WideWorld>();
  w->cfg = cfg;
  w->kernel = std::make_unique<sim::Kernel>(backend, workers);
  sim::PlatformConfig pc;
  pc.clusters = cfg.pipelines;
  pc.pes_per_cluster = cfg.stages + 1;
  w->platform = std::make_unique<sim::Platform>(*w->kernel, pc);
  w->app = std::make_unique<pedf::Application>(*w->platform, "wide");
  w->app->set_model_latencies(false);

  const pedf::TypeDesc u32{pedf::ScalarType::kU32};
  auto root = std::make_unique<pedf::Module>("top");
  root->add_port("out", pedf::PortDir::kOut, u32);
  const std::uint32_t spin = cfg.spin;
  for (int p = 0; p < cfg.pipelines; ++p) {
    root->add_port("in" + std::to_string(p), pedf::PortDir::kIn, u32);
    for (int s = 0; s < cfg.stages; ++s) {
      auto* f = new pedf::FnFilter("s" + std::to_string(p) + "_" + std::to_string(s),
                                   [spin](pedf::FilterContext& pedf) {
                                     auto v = pedf.in("in").get_opt();
                                     if (!v.has_value()) {
                                       pedf.stop();
                                       return;
                                     }
                                     pedf.out("out").put(pedf::Value::u32(
                                         stage_transform(static_cast<std::uint32_t>(v->as_u64()),
                                                         spin)));
                                   });
      f->add_port("in", pedf::PortDir::kIn, u32);
      f->add_port("out", pedf::PortDir::kOut, u32);
      f->set_free_running(true);
      root->add_filter(std::unique_ptr<pedf::Filter>(f));
    }
  }
  // Fan-in: one merge filter draining every lane round-robin. All lanes
  // carry the same token count, so the rotation never starves.
  const int lanes = cfg.pipelines;
  auto* merge = new pedf::FnFilter("merge", [lanes](pedf::FilterContext& pedf) {
    for (int p = 0; p < lanes; ++p) {
      auto v = pedf.in("in" + std::to_string(p)).get_opt();
      if (!v.has_value()) {
        pedf.stop();
        return;
      }
      pedf.out("out").put(*v);
    }
  });
  for (int p = 0; p < cfg.pipelines; ++p)
    merge->add_port("in" + std::to_string(p), pedf::PortDir::kIn, u32);
  merge->add_port("out", pedf::PortDir::kOut, u32);
  merge->set_free_running(true);
  root->add_filter(std::unique_ptr<pedf::Filter>(merge));

  for (int p = 0; p < cfg.pipelines; ++p) {
    std::string lane = std::to_string(p);
    root->bind("this.in" + lane, "s" + lane + "_0.in");
    for (int s = 1; s < cfg.stages; ++s)
      root->bind("s" + lane + "_" + std::to_string(s - 1) + ".out",
                 "s" + lane + "_" + std::to_string(s) + ".in");
    root->bind("s" + lane + "_" + std::to_string(cfg.stages - 1) + ".out", "merge.in" + lane);
  }
  root->bind("merge.out", "this.out");
  pedf::Application& app = *w->app;
  app.set_root(std::move(root));

  for (int p = 0; p < cfg.pipelines; ++p) {
    for (int s = 0; s < cfg.stages; ++s)
      app.map_actor("top.s" + std::to_string(p) + "_" + std::to_string(s),
                    "c" + std::to_string(p) + "p" + std::to_string(s));
    std::uint32_t x = wide_payload_seed(cfg, p);
    std::vector<pedf::Value> stream;
    stream.reserve(cfg.tokens);
    for (std::size_t j = 0; j < cfg.tokens; ++j) {
      x = wide_next(x);
      stream.push_back(pedf::Value::u32(x));
    }
    app.add_host_source("src" + std::to_string(p), "top.in" + std::to_string(p),
                        std::move(stream));
  }
  app.map_actor("top.merge", "c0p" + std::to_string(cfg.stages));
  w->expected_tokens = static_cast<std::uint64_t>(cfg.pipelines) * cfg.tokens;
  w->sink = &app.add_host_sink("snk", "top.out", static_cast<std::size_t>(w->expected_tokens));

  if (cfg.fixed_partitions) {
    const int K = w->kernel->partition_count();
    for (int p = 0; p < cfg.pipelines; ++p)
      for (int s = 0; s < cfg.stages; ++s)
        app.set_partition("top.s" + std::to_string(p) + "_" + std::to_string(s), p % K);
  }
  DFDBG_CHECK(app.elaborate().ok());
  return w;
}

/// Starts and runs the world to completion. Free-running stages park on
/// their drained input links once the sources are exhausted, so a completed
/// run reads as kDeadlock (the kernel tears the parked processes down); the
/// sink token count is the actual completion check.
inline void run_wide_world(WideWorld& w) {
  w.app->start();
  sim::RunResult r = w.kernel->run();
  DFDBG_CHECK_MSG(r == sim::RunResult::kDeadlock || r == sim::RunResult::kFinished,
                  "wide world stopped unexpectedly: " + std::string(sim::to_string(r)));
  DFDBG_CHECK_MSG(w.sink->received().size() == w.expected_tokens,
                  "sink shortfall: got " + std::to_string(w.sink->received().size()) +
                      " of " + std::to_string(w.expected_tokens));
}

/// Order-independent checksum of what the sink saw; equal to
/// wide_expected_checksum(cfg) on any backend iff every token arrived
/// transformed once.
inline std::uint64_t sink_checksum(const WideWorld& w) {
  std::uint64_t sum = 0;
  for (const pedf::Value& v : w.sink->received()) sum += v.as_u64();
  return sum;
}

}  // namespace dfdbg::benchutil
