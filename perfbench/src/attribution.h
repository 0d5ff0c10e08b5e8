// Per-layer attribution of a traced run, from the spans the library
// already emits, read back through the public obs::Tracer export.
//
// A span's self time is its duration minus the time its child spans
// cover. Spans are grouped into the repository's layers by name, and each
// layer's self time is summed over every thread. Layers that run on
// different threads overlap in wall time (the async executor's workers,
// the service's actor pool), so shares of session wall may sum past 1.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Attribution {
  /// Self seconds per layer (see layer_of in attribution.cpp).
  /// core.early_term has no span; replay_traced fills it in.
  std::map<std::string, double> self_seconds;
  /// Summed duration of tuner.tune spans, and the part of it spent in
  /// named layers rather than in the tuner loop's own bookkeeping.
  double tune_seconds = 0.0;
  double tune_attributed_seconds = 0.0;
};

/// Attributes a Chrome trace-event document as exported by
/// obs::Tracer::export_chrome_json(). Throws on a malformed document or
/// unbalanced spans.
Attribution attribute_trace(const std::string& chrome_json);

/// The layer a span name belongs to.
std::string layer_of(const std::string& span_name);

/// Every layer attribute_trace can report, in a fixed order.
const std::vector<std::string>& attribution_layers();

}  // namespace perfbench
