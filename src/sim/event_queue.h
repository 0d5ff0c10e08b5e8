// Discrete-event simulation core.
//
// A single-threaded event loop with a monotonic virtual clock. Events are
// closures ordered by (time, insertion sequence) so same-time events run in
// deterministic FIFO order — determinism is a hard requirement because every
// experiment must be reproducible from a seed.
//
// Handlers live in a slot pool (a vector plus a free list), so the queue
// itself allocates nothing per event once the pool and the heap have grown
// to the peak number of pending events. An EventId packs the slot index with the slot's
// generation, which is bumped whenever the slot is freed: a stale id (its
// event already ran or was cancelled, and the slot now holds a newer event)
// no longer matches and is ignored. Cancellation is lazy: cancel() frees the
// slot at once and the pop loop skips heap entries whose generation no longer
// matches (the flow network reschedules its completion event on every
// reallocation, so cheap cancellation matters).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace autodml::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  double now() const { return now_; }

  /// Schedule at absolute virtual time t >= now().
  EventId schedule_at(double t, std::function<void()> fn);

  /// Schedule after a non-negative delay.
  EventId schedule_after(double delay, std::function<void()> fn);

  /// Mark an event dead; it will be skipped when popped. Idempotent, and a
  /// no-op for ids whose event already ran or was cancelled.
  void cancel(EventId id);

  /// Pop and run the earliest live event. Returns false when empty.
  bool step();

  /// Run until the clock passes `t_end` or the queue drains.
  // Test surface: tests/flow_network_test.cpp
  void run_until(double t_end);

  bool empty() const { return live_count_ == 0; }
  std::size_t pending() const { return live_count_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 1;  // never 0, so no valid id is 0
    bool live = false;
  };

  /// The live slot `id` names, or nullptr when the id is stale.
  Slot* live_slot(EventId id);
  /// Returns a slot to the free list and invalidates ids that name it.
  void release(std::uint32_t index);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
};

}  // namespace autodml::sim
