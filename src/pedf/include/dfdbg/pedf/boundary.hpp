// Cross-partition token transport for the parallel simulation backend.
//
// A Link whose producer and consumer live in different partitions cannot be
// mutated from both sides: all link state (ring, indexes, events) belongs to
// the *consumer's* partition. Instead the producer enqueues {value, uid}
// pairs into a BoundaryChannel, a bounded ring indexed by two monotonic
// counters: `sent_` (advanced by the producing worker during a round) and
// `delivered_` (advanced only by the coordinator's drain, between rounds).
//
// Tokens move into the link only in drain(), which the coordinator runs at
// global quiescence and on debug stops (the kernel's full barrier). During a
// round the producer sees a `delivered_` that cannot change under it, so
// full() — and with it every producer block — is a pure function of the
// schedule; the round handshake's mutex orders the producer's sends before
// the coordinator's drain and the drain before the next round. Per-link FIFO
// order, the Kahn-network property every determinism argument rests on, is
// preserved by construction.
//
// Provenance: the producer allocates the token uid from its own shard
// journal (disjoint per-partition id ranges) and records the kTokenPush
// journal event at send time, in its own shard; delivery adds no journal
// traffic. The producer-side send index equals the link's eventual push
// index (every push to a boundary link goes through its channel), so
// journal streams stay per-link identical to a sequential run.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/event.hpp"

namespace dfdbg::sim {
class Kernel;
}  // namespace dfdbg::sim

namespace dfdbg::pedf {

class Link;

/// The producer-side ring of one partition-crossing link. Owned by the
/// Application; wired into the link via Link::set_outbox at start().
class BoundaryChannel {
 public:
  /// Channel capacity used when the link itself is unbounded.
  static constexpr std::size_t kDefaultSlots = 1024;

  BoundaryChannel(Link& link, std::size_t capacity);

  BoundaryChannel(const BoundaryChannel&) = delete;
  BoundaryChannel& operator=(const BoundaryChannel&) = delete;

  [[nodiscard]] Link& link() const { return *link_; }
  /// Logical bound on in-flight tokens (the link's capacity when it has one,
  /// kDefaultSlots otherwise).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Physical ring slots (next power of two >= capacity; for tests).
  [[nodiscard]] std::size_t slot_count() const { return ring_.size(); }
  /// Tokens enqueued and not yet delivered. Coordinator/debugger context.
  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(sent_.load(std::memory_order_acquire) -
                                    delivered_.load(std::memory_order_acquire));
  }
  /// Producer-side: no slot left until the coordinator's next drain.
  [[nodiscard]] bool full() const {
    return sent_.load(std::memory_order_relaxed) -
               delivered_.load(std::memory_order_relaxed) >=
           capacity_;
  }
  /// Tokens ever accepted == the producer-side push index sequence.
  [[nodiscard]] std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  /// Tokens delivered into the link so far.
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Producer worker: enqueues one token. Precondition: !full().
  /// Returns the token's producer-side index (== its eventual push index).
  std::uint64_t send(Value v, std::uint64_t uid);

  /// Producers blocked on a full channel wait here; the coordinator's drain
  /// notifies once it freed slots. Bound to the producer's partition.
  [[nodiscard]] sim::Event& space_avail() { return space_event_; }

  /// Coordinator: delivers every pending token the link has room for, in
  /// channel order, and wakes both sides. Used at quiescence and on debug
  /// stops, so the debugger never sees a token parked in a channel that could
  /// have moved. Returns true when any token moved.
  bool drain(sim::Kernel& kernel);

 private:
  struct Slot {
    Value value;
    std::uint64_t uid = 0;
  };

  Link* link_;
  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<Slot> ring_;
  /// Producer-owned (release store per send); read by the coordinator
  /// between rounds.
  std::atomic<std::uint64_t> sent_{0};
  /// Coordinator-owned (release store per delivery); read by the producer's
  /// full() during rounds, when it cannot change.
  std::atomic<std::uint64_t> delivered_{0};
  sim::Event space_event_;
};

}  // namespace dfdbg::pedf
