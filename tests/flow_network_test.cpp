#include <gtest/gtest.h>

#include <cmath>

#include "sim/flow_network.h"
#include "util/rng.h"

namespace autodml::sim {
namespace {

TEST(FlowNetwork, SingleFlowExactDuration) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);  // 1 Mbit/s
  double done_at = -1.0;
  net.start_flow({link}, 2e6, [&] { done_at = q.now(); });  // 2 Mbit
  while (q.step()) {}
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(FlowNetwork, TwoEqualFlowsShareFairly) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);
  double t1 = -1, t2 = -1;
  net.start_flow({link}, 1e6, [&] { t1 = q.now(); });
  net.start_flow({link}, 1e6, [&] { t2 = q.now(); });
  while (q.step()) {}
  // Both progress at 0.5 Mbit/s -> both finish at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowDepartsAndLongFlowSpeedsUp) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);
  double t_short = -1, t_long = -1;
  net.start_flow({link}, 0.5e6, [&] { t_short = q.now(); });
  net.start_flow({link}, 1.5e6, [&] { t_long = q.now(); });
  while (q.step()) {}
  // Phase 1: both at 0.5 Mb/s; short needs 0.5Mb -> done at t=1.
  // Phase 2: long has 1.0 Mb left at full rate -> done at t=2.
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 2.0, 1e-9);
}

TEST(FlowNetwork, MaxMinWithHeterogeneousPaths) {
  // Classic water-filling example: two links; flow A crosses both,
  // flow B only link 0, flow C only link 1. cap0 = 1, cap1 = 2 (Mbit/s).
  // Round 1: link0 fair share = 0.5 (2 flows), link1 = 1.0 -> bottleneck
  // link0 freezes A and B at 0.5. Round 2: C alone on link1 residual 1.5.
  EventQueue q;
  FlowNetwork net(q);
  const LinkId l0 = net.add_link(1e6);
  const LinkId l1 = net.add_link(2e6);
  const FlowId a = net.start_flow({l0, l1}, 1e7, [] {});
  const FlowId b = net.start_flow({l0}, 1e7, [] {});
  const FlowId c = net.start_flow({l1}, 1e7, [] {});
  EXPECT_NEAR(net.flow_rate(a), 0.5e6, 1.0);
  EXPECT_NEAR(net.flow_rate(b), 0.5e6, 1.0);
  EXPECT_NEAR(net.flow_rate(c), 1.5e6, 1.0);
}

TEST(FlowNetwork, UtilizationNeverExceedsCapacity) {
  EventQueue q;
  FlowNetwork net(q);
  util::Rng rng(3);
  std::vector<LinkId> links;
  for (int i = 0; i < 6; ++i)
    links.push_back(net.add_link(rng.uniform(1e5, 1e7)));
  for (int f = 0; f < 40; ++f) {
    std::vector<LinkId> path{links[rng.index(6)]};
    if (rng.bernoulli(0.5)) {
      LinkId extra = links[rng.index(6)];
      if (extra != path[0]) path.push_back(extra);
    }
    net.start_flow(path, rng.uniform(1e4, 1e6), [] {});
  }
  for (LinkId l = 0; l < net.num_links(); ++l) {
    EXPECT_LE(net.link_utilization(l), net.link_capacity(l) * (1.0 + 1e-9));
  }
}

TEST(FlowNetwork, EveryFlowGetsPositiveRateAndSomeLinkSaturates) {
  EventQueue q;
  FlowNetwork net(q);
  util::Rng rng(4);
  std::vector<LinkId> links;
  for (int i = 0; i < 4; ++i) links.push_back(net.add_link(1e6 * (i + 1)));
  std::vector<FlowId> flows;
  for (int f = 0; f < 12; ++f) {
    flows.push_back(net.start_flow({links[rng.index(4)]}, 1e9, [] {}));
  }
  for (FlowId f : flows) {
    EXPECT_GT(net.flow_rate(f), 0.0);
  }
  bool any_saturated = false;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    if (net.link_utilization(l) > 0.999 * net.link_capacity(l))
      any_saturated = true;
  }
  EXPECT_TRUE(any_saturated);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);
  bool done = false;
  net.start_flow({link}, 0.0, [&] { done = true; });
  while (q.step()) {}
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(FlowNetwork, EmptyPathFlowCompletesImmediately) {
  EventQueue q;
  FlowNetwork net(q);
  bool done = false;
  net.start_flow({}, 1e9, [&] { done = true; });
  while (q.step()) {}
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, RejectsBadInputs) {
  EventQueue q;
  FlowNetwork net(q);
  EXPECT_THROW(net.add_link(0.0), std::invalid_argument);
  EXPECT_THROW(net.add_link(-5.0), std::invalid_argument);
  const LinkId l = net.add_link(1e6);
  EXPECT_THROW(net.start_flow({l + 10}, 100.0, [] {}), std::invalid_argument);
  EXPECT_THROW(net.start_flow({l}, -1.0, [] {}), std::invalid_argument);
}

TEST(FlowNetwork, RejectsPathsLongerThanTwoLinks) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId a = net.add_link(1e6);
  const LinkId b = net.add_link(1e6);
  const LinkId c = net.add_link(1e6);
  EXPECT_THROW(net.start_flow({a, b, c}, 100.0, [] {}), std::invalid_argument);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(FlowNetwork, FlowsStartedAtOneInstantReallocateOnce) {
  // A runtime fans out one send per worker at the same virtual instant;
  // the water-filling pass must run once for the whole batch.
  constexpr int kWorkers = 16;
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t server = fabric.add_node(8e6);
  std::vector<std::size_t> workers;
  for (int w = 0; w < kWorkers; ++w) workers.push_back(fabric.add_node(8e6));
  int done = 0;
  for (std::size_t w : workers)
    fabric.send(w, server, 1e5, 0.01, [&] { ++done; });
  EXPECT_EQ(net.reallocations(), 0u);
  q.run_until(0.01);
  EXPECT_EQ(net.active_flows(), static_cast<std::size_t>(kWorkers));
  EXPECT_EQ(net.reallocations(), 1u);
  // Equal flows on one downlink share it evenly.
  EXPECT_NEAR(net.link_utilization(fabric.downlink(server)), 8e6, 1e-3);
  EXPECT_EQ(net.reallocations(), 1u);  // no flows started: nothing to flush
  while (q.step()) {}
  EXPECT_EQ(done, kWorkers);
}

TEST(FlowNetwork, RateQueriesFlushPendingStarts) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);
  const FlowId a = net.start_flow({link}, 1e6, [] {});
  const FlowId b = net.start_flow({link}, 1e6, [] {});
  EXPECT_EQ(net.reallocations(), 0u);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 0.5e6);
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 0.5e6);
  EXPECT_EQ(net.reallocations(), 1u);
  // The inline flush cancelled the instant's flush event, so running the
  // queue adds one reallocation: the completion event that retires both.
  while (q.step()) {}
  EXPECT_EQ(net.reallocations(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(FlowNetwork, EmptyAndZeroByteFlowsDoNotReallocate) {
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e6);
  int done = 0;
  net.start_flow({}, 1e9, [&] { ++done; });
  net.start_flow({link}, 0.0, [&] { ++done; });
  while (q.step()) {}
  EXPECT_EQ(done, 2);
  EXPECT_EQ(net.reallocations(), 0u);
}

TEST(FlowNetwork, LongVirtualTimesDoNotLivelock) {
  // Regression: once now() is large, the last bits of a flow used to need a
  // time step below the clock's ULP and the completion event spun forever.
  EventQueue q;
  FlowNetwork net(q);
  const LinkId link = net.add_link(1e9);
  // Push the clock far out first.
  q.schedule_at(1e6, [] {});
  while (q.step()) {}
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    net.start_flow({link}, 512.0, [&] { ++completed; });
  }
  std::size_t executed = 0;
  while (executed < 100000 && q.step()) ++executed;
  EXPECT_EQ(completed, 200);
  EXPECT_LT(executed, 100000u);  // must terminate well below the guard
}

TEST(StarFabric, TransferTimeIsLatencyPlusSerialization) {
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t a = fabric.add_node(8e6);  // 8 Mbit/s = 1 MB/s
  const std::size_t b = fabric.add_node(8e6);
  double done_at = -1;
  fabric.send(a, b, 1e6, 0.25, [&] { done_at = q.now(); });  // 1 MB
  while (q.step()) {}
  EXPECT_NEAR(done_at, 0.25 + 1.0, 1e-9);
}

TEST(StarFabric, SameNodeTransferIsLatencyOnly) {
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t a = fabric.add_node(1e3);  // absurdly slow NIC
  double done_at = -1;
  fabric.send(a, a, 1e9, 0.1, [&] { done_at = q.now(); });
  while (q.step()) {}
  EXPECT_NEAR(done_at, 0.1, 1e-12);
}

TEST(StarFabric, UplinkContentionSlowsConcurrentSends) {
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t src = fabric.add_node(8e6);
  const std::size_t d1 = fabric.add_node(8e6);
  const std::size_t d2 = fabric.add_node(8e6);
  double t1 = -1, t2 = -1;
  fabric.send(src, d1, 1e6, 0.0, [&] { t1 = q.now(); });
  fabric.send(src, d2, 1e6, 0.0, [&] { t2 = q.now(); });
  while (q.step()) {}
  // Shared uplink: both take ~2 s instead of 1 s.
  EXPECT_NEAR(t1, 2.0, 1e-6);
  EXPECT_NEAR(t2, 2.0, 1e-6);
}

TEST(StarFabric, DownlinkContentionForSharedReceiver) {
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t s1 = fabric.add_node(8e6);
  const std::size_t s2 = fabric.add_node(8e6);
  const std::size_t dst = fabric.add_node(8e6);
  double t1 = -1, t2 = -1;
  fabric.send(s1, dst, 1e6, 0.0, [&] { t1 = q.now(); });
  fabric.send(s2, dst, 1e6, 0.0, [&] { t2 = q.now(); });
  while (q.step()) {}
  EXPECT_NEAR(t1, 2.0, 1e-6);
  EXPECT_NEAR(t2, 2.0, 1e-6);
}

TEST(StarFabric, RejectsUnknownNodeAndBadLatency) {
  EventQueue q;
  FlowNetwork net(q);
  StarFabric fabric(q, net);
  const std::size_t a = fabric.add_node(1e6);
  EXPECT_THROW(fabric.send(a, 99, 10.0, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(fabric.send(a, a, 10.0, -0.5, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace autodml::sim
