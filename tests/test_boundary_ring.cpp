// Tests of the BoundaryChannel behind partition-crossing links: producer
// flow control against the coordinator's drain (slots free only when the
// drain delivers), ring wraparound far past the physical slot count, uid
// preservation end to end, and the round handshake between a producing and
// a draining thread (the TSan gate runs that one with -fsanitize=thread; see
// scripts/check_build.sh).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "dfdbg/common/prng.hpp"
#include "dfdbg/pedf/boundary.hpp"
#include "dfdbg/pedf/link.hpp"
#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::pedf {
namespace {

Link make_link() { return Link(LinkId(0), "t", TypeDesc(ScalarType::kU32), nullptr, nullptr); }

// --- drain protocol --------------------------------------------------------

// Randomized single-threaded model check, driven through the same protocol
// the kernel uses: the producer sends until full, the coordinator drains
// between "rounds", the consumer pops from the link. A shadow FIFO carries
// every (value, uid) pair; thousands of cycles over an 8-slot channel force
// many wraps of the physical ring.
TEST(BoundaryRing, RandomizedModelWraparoundFifoAndUids) {
  sim::Kernel k;
  Link l = make_link();
  l.set_capacity(4);
  BoundaryChannel ch(l, 8);
  EXPECT_EQ(ch.capacity(), 8u);
  EXPECT_EQ(ch.slot_count(), 8u) << "8 is already a power of two";

  Prng rng(0xB0DA);
  std::deque<std::pair<std::uint32_t, std::uint64_t>> shadow;  // in flight
  std::uint32_t next_val = 0;
  std::uint64_t next_uid = 1000;
  std::uint64_t sent = 0, popped = 0;

  for (int step = 0; step < 20000; ++step) {
    switch (rng.next_below(3)) {
      case 0: {  // producer: send unless full
        if (ch.full()) {
          EXPECT_EQ(ch.pending(), ch.capacity());
          break;
        }
        const std::uint32_t v = next_val++;
        const std::uint64_t uid = next_uid++;
        EXPECT_EQ(ch.send(Value::u32(v), uid), sent);
        shadow.emplace_back(v, uid);
        sent++;
        break;
      }
      case 1: {  // coordinator: barrier drain
        const std::uint64_t before = ch.delivered();
        const bool moved = ch.drain(k);
        EXPECT_EQ(moved, ch.delivered() != before);
        break;
      }
      default: {  // consumer process: pop delivered tokens off the link
        if (l.empty()) break;
        ASSERT_FALSE(shadow.empty());
        const auto [v, uid] = shadow.front();
        shadow.pop_front();
        EXPECT_EQ(l.token_uid_at(0), uid);
        EXPECT_EQ(l.pop_raw().as_u64(), v);
        EXPECT_EQ(l.last_popped_uid(), uid);
        popped++;
        break;
      }
    }
    // Conservation: every token is exactly one of queued-in-ring,
    // delivered-into-link, or popped.
    EXPECT_EQ(ch.pending() + l.occupancy() + popped, sent);
    EXPECT_LE(ch.sent() - ch.delivered(), ch.capacity());
  }
  // Drain the tail: everything still in flight comes out in order.
  ch.drain(k);
  while (!l.empty()) {
    ASSERT_FALSE(shadow.empty());
    const auto [v, uid] = shadow.front();
    shadow.pop_front();
    EXPECT_EQ(l.pop_raw().as_u64(), v);
    EXPECT_EQ(l.last_popped_uid(), uid);
    popped++;
    ch.drain(k);  // link room reopened: deliver the next batch
  }
  EXPECT_TRUE(shadow.empty());
  EXPECT_EQ(popped, sent);
  EXPECT_GT(sent, ch.slot_count() * 100) << "the ring must have wrapped many times";
}

// Flow control: a full channel stays full until a drain delivers, and the
// drain delivers only what the link has room for — the rest stays queued,
// in order, for the next drain.
TEST(BoundaryRing, SlotsFreeOnlyWhenTheDrainDelivers) {
  sim::Kernel k;
  Link l = make_link();
  l.set_capacity(2);
  BoundaryChannel ch(l, 4);
  for (std::uint32_t i = 0; i < 4; ++i) ch.send(Value::u32(i), 11 + i);
  EXPECT_TRUE(ch.full());
  EXPECT_TRUE(ch.drain(k));
  EXPECT_EQ(l.occupancy(), 2u) << "the link bounds what one drain delivers";
  EXPECT_EQ(ch.pending(), 2u);
  EXPECT_FALSE(ch.full());
  ch.send(Value::u32(4), 15);
  ch.send(Value::u32(5), 16);
  EXPECT_TRUE(ch.full());
  // Pops make link room but free no channel slot; the next drain does.
  l.pop_raw();
  l.pop_raw();
  EXPECT_TRUE(ch.full());
  EXPECT_TRUE(ch.drain(k));
  std::vector<std::uint64_t> uids;
  while (!l.empty()) {
    uids.push_back(l.token_uid_at(0));
    l.pop_raw();
    ch.drain(k);
  }
  EXPECT_EQ(uids, (std::vector<std::uint64_t>{13, 14, 15, 16}));
  EXPECT_EQ(ch.pending(), 0u);
}

// One drain into an unbounded link moves everything sent so far.
TEST(BoundaryRing, DrainDeliversEverythingSent) {
  sim::Kernel k;
  Link l = make_link();
  BoundaryChannel ch(l, 8);
  for (std::uint32_t i = 0; i < 5; ++i) ch.send(Value::u32(i), 100 + i);
  EXPECT_TRUE(ch.drain(k));
  EXPECT_EQ(l.occupancy(), 5u);
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_FALSE(ch.drain(k)) << "a second drain has nothing to move";
}

// Channel capacity is decoupled from the physical ring: a non-power-of-two
// capacity rounds the slot count up while full() still honors the logical
// bound exactly.
TEST(BoundaryRing, NonPowerOfTwoCapacity) {
  sim::Kernel k;
  Link l = make_link();
  BoundaryChannel ch(l, 5);
  EXPECT_EQ(ch.capacity(), 5u);
  EXPECT_EQ(ch.slot_count(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(ch.full());
    ch.send(Value::u32(i), i);
  }
  EXPECT_TRUE(ch.full());
  EXPECT_TRUE(ch.drain(k));
  EXPECT_EQ(l.occupancy(), 5u);
}

// --- round handshake ----------------------------------------------------------

// A producer thread sends during its "round" until the channel is full; a
// coordinator thread drains and pops between rounds. The two alternate
// through a mutex, as the kernel's worker and coordinator do, so the plain
// ring slots are handed over only through that ordering — the test the TSan
// gate builds with -fsanitize=thread. Functionally it pins lossless in-order
// delivery across many wraps.
TEST(BoundaryRing, RoundHandshakeTwoThreads) {
  sim::Kernel k;
  Link l = make_link();
  BoundaryChannel ch(l, 16);
  constexpr std::uint32_t kTokens = 50000;
  std::mutex mu;
  std::condition_variable cv;
  bool producer_turn = true;
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kTokens;) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return producer_turn; });
      lk.unlock();
      while (i < kTokens && !ch.full()) {
        ch.send(Value::u32(i), 1u + i);
        ++i;
      }
      lk.lock();
      producer_turn = false;
      cv.notify_one();
    }
  });
  std::uint64_t mismatches = 0;
  for (std::uint32_t i = 0; i < kTokens;) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return !producer_turn; });
    lk.unlock();
    ch.drain(k);
    while (!l.empty()) {
      const std::uint64_t uid = l.token_uid_at(0);
      if (l.pop_raw().as_u64() != i || uid != 1u + i) mismatches++;
      ++i;
    }
    lk.lock();
    producer_turn = true;
    cv.notify_one();
  }
  producer.join();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(ch.pending(), 0u) << "no token may be left behind";
}

}  // namespace
}  // namespace dfdbg::pedf
