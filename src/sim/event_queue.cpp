#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace autodml::sim {

namespace {
EventId make_id(std::uint32_t index, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | index;
}
std::uint32_t slot_index(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}
std::uint32_t slot_generation(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
}  // namespace

EventId EventQueue::schedule_at(double t, std::function<void()> fn) {
  if (t < now_)
    throw std::invalid_argument("EventQueue: scheduling into the past");
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  const EventId id = make_id(index, slot.generation);
  heap_.push(Entry{t, next_seq_++, id});
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_after(double delay, std::function<void()> fn) {
  if (delay < 0.0)
    throw std::invalid_argument("EventQueue: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventQueue::Slot* EventQueue::live_slot(EventId id) {
  const std::uint32_t index = slot_index(id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != slot_generation(id)) return nullptr;
  return &slot;
}

void EventQueue::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
  --live_count_;
}

void EventQueue::cancel(EventId id) {
  Slot* slot = live_slot(id);
  if (slot == nullptr) return;  // already ran or cancelled
  slot->fn = nullptr;
  release(slot_index(id));
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    Slot* slot = live_slot(top.id);
    if (slot == nullptr) continue;  // cancelled entry
    std::function<void()> fn = std::move(slot->fn);
    slot->fn = nullptr;
    // Free the slot before running: the handler may schedule into it.
    release(slot_index(top.id));
    now_ = top.time;
    fn();
    return true;
  }
  return false;
}

void EventQueue::run_until(double t_end) {
  while (!heap_.empty()) {
    // Peek at the next live event time without running it.
    const Entry top = heap_.top();
    if (live_slot(top.id) == nullptr) {
      heap_.pop();
      continue;
    }
    if (top.time > t_end) break;
    step();
  }
  now_ = std::max(now_, t_end);
}

}  // namespace autodml::sim
