#include "baselines/parallel_bo.h"

#include <algorithm>
#include <stdexcept>

namespace autodml::baselines {

ParallelBoResult parallel_bo(core::ObjectiveFunction& objective,
                             core::BoOptions options, int batch_size) {
  if (batch_size < 1)
    throw std::invalid_argument("parallel_bo: batch_size must be >= 1");
  core::BoTuner tuner(objective, std::move(options));
  ParallelBoResult result;
  while (!tuner.session_done()) {
    std::vector<core::BoTuner::SessionAsk> round;
    while (static_cast<int>(round.size()) < batch_size) {
      std::optional<core::BoTuner::SessionAsk> ask = tuner.ask_next();
      if (!ask) break;
      round.push_back(std::move(*ask));
    }
    // Barrier: the round ends when its slowest run does.
    double slowest = 0.0;
    for (const core::BoTuner::SessionAsk& ask : round) {
      core::Trial trial = tuner.evaluate(ask);
      slowest = std::max(slowest, trial.outcome.spent_seconds);
      tuner.tell_next(ask.ticket, std::move(trial));
    }
    result.wall_clock_seconds += slowest;
  }
  result.tuning = tuner.session_result();
  return result;
}

}  // namespace autodml::baselines
