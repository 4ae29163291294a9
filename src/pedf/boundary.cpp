#include "dfdbg/pedf/boundary.hpp"

#include "dfdbg/common/assert.hpp"
#include "dfdbg/pedf/link.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::pedf {

namespace {
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

BoundaryChannel::BoundaryChannel(Link& link, std::size_t capacity)
    : link_(&link), capacity_(capacity < 1 ? 1 : capacity),
      mask_(next_pow2(capacity_) - 1), ring_(next_pow2(capacity_)),
      space_event_("boundary-space:" + link.name()) {}

std::uint64_t BoundaryChannel::send(Value v, std::uint64_t uid) {
  DFDBG_CHECK_MSG(!full(), "send on full boundary channel of " + link_->name());
  const std::uint64_t s = sent_.load(std::memory_order_relaxed);
  Slot& slot = ring_[s & mask_];
  slot.value = std::move(v);
  slot.uid = uid;
  sent_.store(s + 1, std::memory_order_release);
  return s;
}

bool BoundaryChannel::drain(sim::Kernel& kernel) {
  const std::uint64_t s = sent_.load(std::memory_order_acquire);
  std::uint64_t d = delivered_.load(std::memory_order_relaxed);
  const std::uint64_t d0 = d;
  while (d != s && !link_->full()) {
    Slot& slot = ring_[d & mask_];
    link_->push_delivered(std::move(slot.value), slot.uid);
    delivered_.store(++d, std::memory_order_release);
  }
  if (d == d0) return false;
  // Coordinator context: both wakes deliver straight into the waiters'
  // partitions' ready queues.
  kernel.notify_if_waiting(link_->data_avail());
  kernel.notify_if_waiting(space_event_);
  return true;
}

}  // namespace dfdbg::pedf
