#include "sim/flow_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace autodml::sim {

namespace {
constexpr double kBitEpsilon = 1e-6;  // flows below this are complete
}

LinkId FlowNetwork::add_link(double capacity_bps) {
  if (!(capacity_bps > 0.0) || !std::isfinite(capacity_bps))
    throw std::invalid_argument("FlowNetwork: bad link capacity");
  link_capacity_.push_back(capacity_bps);
  return link_capacity_.size() - 1;
}

FlowId FlowNetwork::start_flow(std::span<const LinkId> path, double bits,
                               std::function<void()> on_complete) {
  if (path.size() > kMaxPathLinks)
    throw std::invalid_argument("FlowNetwork: path longer than " +
                                std::to_string(kMaxPathLinks) + " links");
  for (LinkId l : path) {
    if (l >= link_capacity_.size())
      throw std::invalid_argument("FlowNetwork: unknown link in path");
  }
  if (bits < 0.0 || !std::isfinite(bits))
    throw std::invalid_argument("FlowNetwork: bad flow size");

  advance_progress();
  const FlowId id = next_flow_id_++;
  if (path.empty() || bits <= kBitEpsilon) {
    // Nothing can throttle it and it takes no bandwidth; complete on the
    // next event tick so callbacks never run re-entrantly inside start_flow.
    queue_->schedule_after(0.0, std::move(on_complete));
    return id;
  }
  Flow flow{id, {}, path.size(), bits, 0.0, std::move(on_complete)};
  std::copy(path.begin(), path.end(), flow.links.begin());
  flows_.push_back(std::move(flow));
  mark_dirty();
  return id;
}

double FlowNetwork::flow_rate(FlowId id) {
  flush();
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& flow, FlowId key) { return flow.id < key; });
  return it == flows_.end() || it->id != id ? 0.0 : it->rate;
}

double FlowNetwork::link_utilization(LinkId link) {
  flush();
  double total = 0.0;
  for (const Flow& flow : flows_) {
    const auto path = flow.path();
    if (std::find(path.begin(), path.end(), link) != path.end()) {
      total += flow.rate;
    }
  }
  return total;
}

void FlowNetwork::advance_progress() {
  const double now = queue_->now();
  const double dt = now - last_progress_time_;
  last_progress_time_ = now;
  if (dt <= 0.0) return;
  for (Flow& flow : flows_) {
    flow.remaining_bits = std::max(0.0, flow.remaining_bits - flow.rate * dt);
  }
}

void FlowNetwork::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  // The pending completion time was computed for the old flow set.
  if (has_completion_event_) {
    queue_->cancel(completion_event_);
    has_completion_event_ = false;
  }
  flush_event_ = queue_->schedule_after(0.0, [this] {
    dirty_ = false;
    reallocate();
  });
}

void FlowNetwork::flush() {
  if (dirty_) reallocate();
}

void FlowNetwork::reallocate() {
  ++reallocations_;
  if (dirty_) {
    dirty_ = false;
    queue_->cancel(flush_event_);
  }
  // Progressive filling: repeatedly find the most-constrained link, pin its
  // flows at the fair share, remove them and their capacity, repeat.
  const std::size_t num_links = link_capacity_.size();
  residual_.assign(link_capacity_.begin(), link_capacity_.end());
  load_.assign(num_links, 0);
  share_.resize(num_links);
  unfrozen_.clear();
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    unfrozen_.push_back(f);
    for (LinkId l : flows_[f].path()) ++load_[l];
  }

  while (!unfrozen_.empty()) {
    // Bottleneck link: minimal residual fair share among loaded links.
    double best_share = std::numeric_limits<double>::infinity();
    for (LinkId l = 0; l < num_links; ++l) {
      if (load_[l] == 0) continue;
      share_[l] = residual_[l] / static_cast<double>(load_[l]);
      best_share = std::min(best_share, share_[l]);
    }
    // Freeze every flow crossing a link that is saturated at best_share.
    // Every link on an unfrozen flow's path is loaded, so its share_ entry
    // is from this round.
    const double saturated = best_share * (1.0 + 1e-12);
    still_unfrozen_.clear();
    frozen_.clear();
    for (std::size_t f : unfrozen_) {
      Flow& flow = flows_[f];
      bool bottlenecked = false;
      for (LinkId l : flow.path()) {
        if (share_[l] <= saturated) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        flow.rate = best_share;
        frozen_.push_back(f);
      } else {
        still_unfrozen_.push_back(f);
      }
    }
    // Retire frozen flows' capacity and load, in id order.
    for (std::size_t f : frozen_) {
      const Flow& flow = flows_[f];
      for (LinkId l : flow.path()) {
        residual_[l] = std::max(0.0, residual_[l] - flow.rate);
        --load_[l];
      }
    }
    if (frozen_.empty()) {
      // Defensive: no progress (should be impossible); pin everything.
      for (std::size_t f : unfrozen_) flows_[f].rate = best_share;
      still_unfrozen_.clear();
    }
    unfrozen_.swap(still_unfrozen_);
  }

  // Reschedule the single completion event at the earliest finish time.
  if (has_completion_event_) {
    queue_->cancel(completion_event_);
    has_completion_event_ = false;
  }
  double earliest = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    if (flow.rate <= 0.0) continue;
    earliest = std::min(earliest, flow.remaining_bits / flow.rate);
  }
  if (std::isfinite(earliest)) {
    completion_event_ = queue_->schedule_after(
        earliest, [this] { on_completion_event(); });
    has_completion_event_ = true;
  }
}

void FlowNetwork::on_completion_event() {
  has_completion_event_ = false;
  advance_progress();
  // A flow is done when its remainder is absolute dust OR would finish
  // within the floating-point resolution of the current clock (t + dt == t):
  // without the relative test the completion event can re-fire forever at a
  // frozen virtual time once the clock grows large.
  const double now = queue_->now();
  const double time_dust = std::max(1e-15, now * 1e-12);
  const auto is_done = [&](const Flow& f) {
    if (f.remaining_bits <= kBitEpsilon) return true;
    return f.rate > 0.0 && f.remaining_bits / f.rate <= time_dust;
  };
  std::vector<std::function<void()>> callbacks;
  std::size_t kept = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (is_done(flows_[f])) {
      callbacks.push_back(std::move(flows_[f].on_complete));
    } else {
      if (kept != f) flows_[kept] = std::move(flows_[f]);
      ++kept;
    }
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
               flows_.end());
  if (callbacks.empty() && !flows_.empty()) {
    // Guaranteed progress: the event fired because *some* flow was due;
    // numerical drift can leave it marginally unfinished. Retire the flow
    // closest to completion rather than spinning.
    std::size_t nearest = flows_.size();
    double best_eta = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      if (flows_[f].rate <= 0.0) continue;
      const double eta = flows_[f].remaining_bits / flows_[f].rate;
      if (eta < best_eta) {
        best_eta = eta;
        nearest = f;
      }
    }
    // Only force it when the remaining time is unrepresentable on the
    // clock (now + eta == now); otherwise the rescheduled event below will
    // make progress on its own.
    if (nearest != flows_.size() && now + best_eta <= now) {
      callbacks.push_back(std::move(flows_[nearest].on_complete));
      flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(nearest));
    }
  }
  reallocate();
  // Callbacks run last: they may start new flows, which mark the network
  // dirty for this instant's flush.
  for (auto& cb : callbacks) cb();
}

std::size_t StarFabric::add_node(double nic_bps) {
  uplink_.push_back(network_->add_link(nic_bps));
  downlink_.push_back(network_->add_link(nic_bps));
  return uplink_.size() - 1;
}

void StarFabric::send(std::size_t src, std::size_t dst, double bytes,
                      double latency, std::function<void()> on_complete) {
  if (src >= num_nodes() || dst >= num_nodes())
    throw std::invalid_argument("StarFabric: unknown node");
  if (latency < 0.0) throw std::invalid_argument("StarFabric: bad latency");
  const double bits = bytes * 8.0;
  if (src == dst) {
    queue_->schedule_after(latency, std::move(on_complete));
    return;
  }
  queue_->schedule_after(
      latency, [this, up = uplink_[src], down = downlink_[dst], bits,
                cb = std::move(on_complete)]() mutable {
        network_->start_flow({up, down}, bits, std::move(cb));
      });
}

}  // namespace autodml::sim
