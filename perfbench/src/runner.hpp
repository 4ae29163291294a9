// The arms of one benchmark round. Each arm is one operation: it builds a
// fresh world, runs it, times the part a user waits for, and checks the
// outputs. An arm returns an empty string on success, else why it failed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dfdbg/h264/codec.hpp"
#include "wide_graph.hpp"

namespace perfbench {

/// The workload's wide graph with stage work `spin`, built and elaborated,
/// on fibers or on the parallel backend with the workload's worker count.
std::unique_ptr<dfdbg::benchutil::WideWorld> build_wide(const Workload& w, bool parallel,
                                                        std::uint32_t spin);

class Runner {
 public:
  explicit Runner(Workload w) : w_(std::move(w)) {}

  /// Computes the reference outputs the checks compare against: the
  /// sequential encoder's reconstruction and the wide sink checksum.
  void prepare();
  [[nodiscard]] const Workload& workload() const { return w_; }

  // The arms. `traced` turns the obs registry on for the arm and records
  // spans; its times then go to the traced sample set.
  std::string native_decode(bool traced);
  std::string debug_decode(bool traced);
  std::string trace_decode(bool traced);
  std::string wide(bool parallel, bool traced);
  /// A debug session driven over TCP loopback by a client thread.
  std::string remote_session(bool traced);
  /// Round trips of one line to a bare loopback echo thread: the socket
  /// and wake-up cost of a round trip with no server work, the unit the
  /// verb round trips are reported in.
  std::string loopback_echo(bool traced);
  /// The same verbs through DebugServer::handle_frame, with no socket.
  std::string inproc_session(bool traced);
  /// Cold set-up of every path: decoder build + attach + server listen +
  /// connect + first response, and the wide graph build at K workers.
  /// Run once, first in the process.
  std::string cold_setup();

  [[nodiscard]] SampleMap& times(bool traced) { return traced ? traced_ : untraced_; }
  [[nodiscard]] SampleMap& layer() { return layer_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }

 private:
  Tracer* spans(bool traced) { return traced ? &tracer_ : nullptr; }
  std::string remote(bool traced, bool setup_only);

  Workload w_;
  std::vector<dfdbg::h264::Frame> want_frames_;
  std::uint64_t want_checksum_ = 0;
  SampleMap untraced_;
  SampleMap traced_;
  SampleMap layer_;
  Tracer tracer_;
};

}  // namespace perfbench
