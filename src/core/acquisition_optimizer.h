// Acquisition maximization over the mixed configuration space.
//
// The space is mostly discrete (menus, categoricals, conditionals), so
// gradient ascent on the acquisition is meaningless. Instead: score a large
// uniform candidate pool (global exploration) plus neighborhoods of the best
// trials so far (local exploitation), deduplicated against the history, and
// return the argmax. This is the standard recipe for CherryPick-class tuners
// and is exact enough when one real evaluation costs hours.
#pragma once

#include <optional>
#include <span>

#include "core/acquisition.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"

namespace autodml::core {

struct AcqOptimizerOptions {
  int random_candidates = 512;
  int top_k = 5;               // seed neighborhoods from the k best trials
  int neighbors_per_seed = 16;
};

/// Best candidate by acquisition score, or nullopt when every candidate is
/// a duplicate of an already-evaluated configuration (caller should fall
/// back to a random sample). Throws std::logic_error when `kind` reads the
/// cost model and `surrogate` was built without one.
std::optional<conf::Config> propose_candidate(
    const SurrogateModel& surrogate, AcquisitionKind kind,
    std::span<const Trial> history, util::Rng& rng,
    const AcqOptimizerOptions& options = {});

/// Uniform draw that skips configurations in `history` (evaluated, or
/// pending as fantasies): resubmitting one wastes a whole evaluation. A
/// small discrete space can be exhausted, so rejection is bounded and the
/// last draw is kept. The rng advances past the first draw only when that
/// draw is a duplicate.
conf::Config sample_unseen(const conf::ConfigSpace& space,
                           std::span<const Trial> history, util::Rng& rng);

/// Kriging-believer fantasy for a pending evaluation at `config`: a tagged
/// placeholder trial whose objective is the model's posterior mean there
/// (the "believer" step of Ginsbourger's kriging believer), or +infinity —
/// no belief at all, the trial only contributes dedup pressure — when the
/// model is not ready. The trial carries `fantasized = true`, which
/// excludes it from feasibility/cost training, incumbent updates, and
/// neighborhood seeding (see SurrogateModel::update and Trial::succeeded).
Trial make_fantasy_trial(const SurrogateModel& model,
                         const conf::Config& config);

}  // namespace autodml::core
