// Flow-level network model with max-min fair bandwidth sharing.
//
// Packet-level simulation is orders of magnitude too slow for a tuner that
// evaluates hundreds of configurations, and unnecessary: distributed-ML
// transfers are large, so steady-state bandwidth shares dominate. We model
// each transfer as a fluid *flow* over a path of links; whenever the set of
// active flows changes, rates are recomputed by water-filling (progressive
// filling), the unique max-min fair allocation. The earliest flow completion
// is kept as a single rescheduled event in the driving EventQueue.
//
// When rates become visible: reallocation is coalesced per virtual instant.
// start_flow() only appends the flow and marks the network dirty; the first
// start at an instant schedules one zero-delay flush event, which
// reallocates once after every start queued at that instant (a runtime that
// fans out W sends pays one water-filling pass, not W). Zero-dt progress
// credits nothing, so the rates and completion times are exactly those of
// reallocating after each start. flow_rate() and link_utilization() flush a
// pending reallocation before they answer, so callers never see stale
// rates. A completion event reallocates inline, before its callbacks run.
//
// StarFabric builds the standard cloud abstraction on top: every node has a
// dedicated full-duplex NIC (an uplink and a downlink) attached to an
// infinitely fast core, so the only contention points are node NICs — the
// regime real VM clusters are in.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "sim/event_queue.h"

namespace autodml::sim {

using LinkId = std::size_t;
using FlowId = std::uint64_t;

class FlowNetwork {
 public:
  /// Longest path a flow may take. Paths are stored inline in the flow;
  /// StarFabric routes every transfer over one uplink and one downlink.
  static constexpr std::size_t kMaxPathLinks = 2;

  explicit FlowNetwork(EventQueue& queue) : queue_(&queue) {}

  /// Adds a link with the given capacity (bits/second). Capacity must be
  /// positive and finite.
  LinkId add_link(double capacity_bps);

  std::size_t num_links() const { return link_capacity_.size(); }
  double link_capacity(LinkId link) const { return link_capacity_.at(link); }

  /// Starts a flow of `bits` over `path` (possibly empty = infinitely fast;
  /// at most kMaxPathLinks links, else std::invalid_argument).
  /// `on_complete` fires from the event loop when the last bit arrives.
  /// Rates are recomputed by the instant's flush event (see above).
  FlowId start_flow(std::span<const LinkId> path, double bits,
                    std::function<void()> on_complete);
  FlowId start_flow(std::initializer_list<LinkId> path, double bits,
                    std::function<void()> on_complete) {
    return start_flow(std::span<const LinkId>(path.begin(), path.size()),
                      bits, std::move(on_complete));
  }

  std::size_t active_flows() const { return flows_.size(); }

  /// Current max-min fair rate of a flow (bits/sec); 0 if unknown/finished.
  /// Flushes a pending reallocation first.
  // Test surface: tests/flow_network_test.cpp
  double flow_rate(FlowId id);

  /// Sum of rates currently crossing a link (for invariant checks).
  /// Flushes a pending reallocation first.
  // Test surface: tests/flow_network_test.cpp
  double link_utilization(LinkId link);

  /// Number of max-min reallocations run so far.
  std::uint64_t reallocations() const { return reallocations_; }

 private:
  struct Flow {
    FlowId id;
    std::array<LinkId, kMaxPathLinks> links;
    std::size_t num_links;
    double remaining_bits;
    double rate = 0.0;
    std::function<void()> on_complete;

    std::span<const LinkId> path() const { return {links.data(), num_links}; }
  };

  /// Credit progress for elapsed virtual time since the last update.
  void advance_progress();

  /// Records that the flow set changed: drops the now-stale completion
  /// event and schedules the instant's flush if none is pending.
  void mark_dirty();

  /// Reallocates if flows were started since the last reallocation.
  // Test surface: tests/flow_network_test.cpp (through flow_rate)
  void flush();

  /// Recompute max-min rates and reschedule the completion event.
  void reallocate();

  /// Completion event body: retire finished flows, then fire callbacks.
  void on_completion_event();

  EventQueue* queue_;
  std::vector<double> link_capacity_;
  // Active flows in ascending id order: ids are issued in increasing order
  // and retired flows are compacted stably. The max-min rate computation
  // iterates this order, so the floating-point accumulation order (and
  // therefore every simulated timing) is identical on every platform
  // (adml-lint D003).
  std::vector<Flow> flows_;
  FlowId next_flow_id_ = 1;
  double last_progress_time_ = 0.0;
  EventId completion_event_ = 0;
  bool has_completion_event_ = false;
  EventId flush_event_ = 0;
  bool dirty_ = false;  // flows started since the last reallocation
  std::uint64_t reallocations_ = 0;

  // Progressive-filling scratch, reused across reallocations. Flow lists
  // hold indices into flows_.
  std::vector<double> residual_;
  std::vector<double> share_;
  std::vector<std::size_t> load_;
  std::vector<std::size_t> unfrozen_;
  std::vector<std::size_t> still_unfrozen_;
  std::vector<std::size_t> frozen_;
};

/// Star topology helper: per-node uplink/downlink pairs over an ideal core.
class StarFabric {
 public:
  StarFabric(EventQueue& queue, FlowNetwork& network)
      : queue_(&queue), network_(&network) {}

  /// Registers a node with the given NIC speed; returns its node id.
  std::size_t add_node(double nic_bps);

  std::size_t num_nodes() const { return uplink_.size(); }
  LinkId downlink(std::size_t node) const { return downlink_.at(node); }

  /// Transfers `bytes` from src to dst: a fixed propagation/handshake
  /// latency, then a flow over src's uplink and dst's downlink.
  /// Same-node transfers take only the latency. Zero-byte transfers are
  /// treated as pure-latency messages.
  void send(std::size_t src, std::size_t dst, double bytes, double latency,
            std::function<void()> on_complete);

 private:
  EventQueue* queue_;
  FlowNetwork* network_;
  std::vector<LinkId> uplink_;
  std::vector<LinkId> downlink_;
};

}  // namespace autodml::sim
