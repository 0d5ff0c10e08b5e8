#include "attribution.h"

#include <stdexcept>
#include <vector>

#include "util/json.h"

namespace perfbench {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct Open {
  std::string name;
  double start_us = 0.0;
  double child_us = 0.0;
};

}  // namespace

std::string layer_of(const std::string& name) {
  if (starts_with(name, "sim.")) return "sim";
  if (starts_with(name, "eval.")) return "workloads";
  if (name == "gp.hyperopt") return "gp.hyperopt";
  if (starts_with(name, "gp.")) return "gp.other";
  if (starts_with(name, "math.")) return "math";
  if (starts_with(name, "surrogate.")) return "core.surrogate";
  if (starts_with(name, "acq.")) return "core.acq";
  if (name == "tuner.journal_append") return "core.journal";
  if (name == "tuner.async_wait") return "core.async_wait";
  if (starts_with(name, "tuner.")) return "core.tuner";
  // handle_line runs on the client's thread and covers the whole request,
  // queueing for the session's actor included; the op spans run on the
  // actor pool.
  if (name == "service.handle_line") return "service.client_wait";
  if (starts_with(name, "service.")) return "service";
  return "other";
}

const std::vector<std::string>& attribution_layers() {
  static const std::vector<std::string> layers = {
      "sim",           "workloads",  "gp.hyperopt",     "gp.other",
      "math",          "core.surrogate", "core.acq",    "core.early_term",
      "core.journal",  "core.async_wait", "core.tuner", "service",
      "service.client_wait", "other"};
  return layers;
}

Attribution attribute_trace(const std::string& chrome_json) {
  const autodml::util::JsonValue doc = autodml::util::parse_json(chrome_json);
  // Events arrive grouped by thread, in record order within a thread.
  std::map<double, std::vector<Open>> stacks;  // tid -> open spans
  Attribution out;
  for (const std::string& layer : attribution_layers())
    out.self_seconds[layer] = 0.0;
  for (const autodml::util::JsonValue& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph != "B" && ph != "E") continue;
    std::vector<Open>& stack = stacks[e.at("tid").as_number()];
    const double ts = e.at("ts").as_number();
    if (ph == "B") {
      stack.push_back({e.at("name").as_string(), ts, 0.0});
      continue;
    }
    if (stack.empty() || stack.back().name != e.at("name").as_string())
      throw std::runtime_error("trace: unbalanced span " +
                               e.at("name").as_string());
    const Open span = stack.back();
    stack.pop_back();
    const double duration_us = ts - span.start_us;
    const double self_us = duration_us - span.child_us;
    out.self_seconds[layer_of(span.name)] += self_us * 1e-6;
    if (!stack.empty()) stack.back().child_us += duration_us;
    // Inside a tune() call, time not in the loop's own bookkeeping spans
    // belongs to a named layer (evaluation, model, acquisition, journal,
    // waiting on the async executor).
    if (span.name == "tuner.tune") out.tune_seconds += duration_us * 1e-6;
    const bool tune_thread_bookkeeping =
        layer_of(span.name) == "core.tuner" && span.name != "tuner.async_eval";
    if (tune_thread_bookkeeping)
      out.tune_attributed_seconds -= self_us * 1e-6;
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) throw std::runtime_error("trace: span left open");
  }
  out.tune_attributed_seconds += out.tune_seconds;
  return out;
}

}  // namespace perfbench
