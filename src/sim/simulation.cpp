#include "sim/simulation.hpp"

#include <limits>
#include <stdexcept>

#include "check/sim_audit.hpp"

namespace vdc::sim {

EventId Simulation::schedule(double time_s, EventCallback callback) {
  if (time_s < now_) throw std::invalid_argument("Simulation::schedule: time is in the past");
  if (!callback) throw std::invalid_argument("Simulation::schedule: empty callback");
  audit::event_time(now_, time_s);  // catches NaN, which the < above lets through

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slab_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Simulation::schedule: event slab exhausted");
    }
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Record& rec = slab_[slot];
  rec.callback = std::move(callback);
  rec.armed = true;
  heap_.push(Entry{time_s, next_seq_++, slot, rec.generation});
  ++live_;
  audit::event_slab(live_, slab_.size(), free_slots_.size());
  return make_id(rec.generation, slot);
}

bool Simulation::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slab_.size()) return false;
  Record& rec = slab_[slot];
  if (!rec.armed || rec.generation != generation_of(id)) return false;
  release_slot(slot);  // the heap entry goes stale and is skipped when popped
  return true;
}

bool Simulation::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (!entry_live(top)) continue;  // cancelled (or recycled) since scheduling
    // Move the callback out and recycle the slot *before* invoking, so the
    // callback can freely schedule new events (possibly into this slot).
    EventCallback callback = std::move(slab_[top.slot].callback);
    release_slot(top.slot);
    audit::clock_monotonic(now_, top.time_s);
    now_ = top.time_s;
    ++executed_;
    callback();
    return true;
  }
  return false;
}

std::size_t Simulation::drain_until(double t) {
  // Negated so a NaN time, which compares false both ways, is rejected too.
  if (!(t >= now_)) {
    throw std::invalid_argument("Simulation::drain_until: time is in the past or NaN");
  }
  std::size_t executed = 0;
  while (!heap_.empty()) {
    // Skim stale entries off the top so the peeked time is live.
    while (!heap_.empty() && !entry_live(heap_.top())) heap_.pop();
    if (heap_.empty() || heap_.top().time_s > t) break;
    step();
    ++executed;
  }
  return executed;
}

void Simulation::run_until(double t) {
  drain_until(t);
  now_ = t;
}

void Simulation::run() {
  while (step()) {
  }
}

std::optional<double> Simulation::next_event_time() {
  while (!heap_.empty() && !entry_live(heap_.top())) heap_.pop();
  if (heap_.empty()) return std::nullopt;
  return heap_.top().time_s;
}

}  // namespace vdc::sim
