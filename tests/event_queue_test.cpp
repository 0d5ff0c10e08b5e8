#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.h"

namespace autodml::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  while (q.step()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  while (q.step()) {}
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(5.0, [&] {
    q.schedule_after(2.0, [&] { fired_at = q.now(); });
  });
  while (q.step()) {}
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  while (q.step()) {}
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(1.0, [&] { ran = true; });
  q.cancel(id);
  while (q.step()) {}
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun) {
  EventQueue q;
  const EventId id = q.schedule_at(1.0, [] {});
  while (q.step()) {}
  q.cancel(id);  // already ran: no-op
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  while (q.step()) {}
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  q.run_until(2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  while (q.step()) {}
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilSkipsCancelledHead) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(1.0, [&] { ran = true; });
  q.schedule_at(2.0, [] {});
  q.cancel(id);
  q.run_until(1.5);
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StaleCancelAfterSlotReuseKeepsNewEvent) {
  // Ids name a pooled slot plus its generation: once an event has run or
  // been cancelled and its slot holds a newer event, the old id must not
  // reach the new event, and pending() must stay exact throughout.
  EventQueue q;
  std::vector<int> ran;
  const EventId first = q.schedule_at(1.0, [&] { ran.push_back(1); });
  q.cancel(first);
  EXPECT_EQ(q.pending(), 0u);
  const EventId second = q.schedule_at(2.0, [&] { ran.push_back(2); });
  EXPECT_NE(second, first);
  q.cancel(first);  // stale: its slot now belongs to `second`
  EXPECT_EQ(q.pending(), 1u);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(ran, (std::vector<int>{2}));
  EXPECT_EQ(q.pending(), 0u);

  const EventId third = q.schedule_at(3.0, [&] { ran.push_back(3); });
  q.cancel(second);  // already ran; slot reused by `third`
  q.cancel(first);
  EXPECT_EQ(q.pending(), 1u);
  while (q.step()) {}
  EXPECT_EQ(ran, (std::vector<int>{2, 3}));
  q.cancel(third);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlotPoolKeepsTimeThenFifoOrderUnderChurn) {
  // Heavy schedule/cancel churn reuses slots out of order; execution must
  // still follow (time, insertion order) and skip exactly the cancelled.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.schedule_at(static_cast<double>(i % 4),
                                [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 3) q.cancel(ids[static_cast<std::size_t>(i)]);
  for (int i = 64; i < 80; ++i) {
    q.schedule_at(static_cast<double>(i % 4),
                  [&order, i] { order.push_back(i); });
  }
  std::vector<int> expected;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 80; ++i) {
      if (i % 4 == t && !(i < 64 && i % 3 == 0)) expected.push_back(i);
    }
  }
  EXPECT_EQ(q.pending(), expected.size());
  while (q.step()) {}
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) q.schedule_after(1.0, recurse);
  };
  q.schedule_at(0.0, recurse);
  while (q.step()) {}
  EXPECT_EQ(depth, 50);
  EXPECT_DOUBLE_EQ(q.now(), 49.0);
}

}  // namespace
}  // namespace autodml::sim
