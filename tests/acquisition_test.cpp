#include <gtest/gtest.h>

#include <cmath>

#include "core/acquisition.h"

namespace autodml::core {
namespace {

// ---- normal distribution helpers -----------------------------------------------

TEST(NormalDist, PdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.39894228, 1e-7);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072, 1e-7);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalDist, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

// ---- EI ---------------------------------------------------------------------------

TEST(ExpectedImprovement, NonNegative) {
  for (double mean : {-2.0, 0.0, 3.0}) {
    for (double var : {0.0, 0.5, 4.0}) {
      EXPECT_GE(expected_improvement(mean, var, 0.0), 0.0);
    }
  }
}

TEST(ExpectedImprovement, ZeroVarianceIsPlainImprovement) {
  EXPECT_DOUBLE_EQ(expected_improvement(1.0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(expected_improvement(5.0, 0.0, 3.0), 0.0);
}

TEST(ExpectedImprovement, IncreasesWithVarianceAtIncumbentMean) {
  const double best = 0.0;
  double prev = expected_improvement(best, 0.01, best);
  for (double var : {0.1, 1.0, 10.0}) {
    const double ei = expected_improvement(best, var, best);
    EXPECT_GT(ei, prev);
    prev = ei;
  }
}

TEST(ExpectedImprovement, DecreasesAsMeanWorsens) {
  double prev = expected_improvement(-1.0, 1.0, 0.0);
  for (double mean : {0.0, 1.0, 3.0}) {
    const double ei = expected_improvement(mean, 1.0, 0.0);
    EXPECT_LT(ei, prev);
    prev = ei;
  }
}

TEST(LogExpectedImprovement, MatchesLogOfEiInSafeRange) {
  for (double mean : {-1.0, 0.0, 2.0}) {
    const double ei = expected_improvement(mean, 1.0, 0.5);
    EXPECT_NEAR(log_expected_improvement(mean, 1.0, 0.5), std::log(ei), 1e-6);
  }
}

TEST(LogExpectedImprovement, FiniteWhereEiUnderflows) {
  // mean far above incumbent with tiny variance: EI underflows to 0 but
  // log-EI must still rank candidates.
  const double a = log_expected_improvement(50.0, 0.01, 0.0);
  const double b = log_expected_improvement(60.0, 0.01, 0.0);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_TRUE(std::isfinite(b));
  EXPECT_GT(a, b);  // closer candidate still preferred
  EXPECT_EQ(expected_improvement(50.0, 0.01, 0.0), 0.0);  // plain EI dead
}

TEST(LogExpectedImprovement, ZeroVarianceCases) {
  EXPECT_DOUBLE_EQ(log_expected_improvement(1.0, 0.0, 3.0), std::log(2.0));
  EXPECT_LT(log_expected_improvement(5.0, 0.0, 3.0), -1e90);
}

// ---- UCB / PI -----------------------------------------------------------------------

TEST(Ucb, PrefersLowMeanAndHighVariance) {
  EXPECT_GT(ucb_score(0.0, 1.0, 2.0), ucb_score(1.0, 1.0, 2.0));
  EXPECT_GT(ucb_score(0.0, 4.0, 2.0), ucb_score(0.0, 1.0, 2.0));
}

TEST(Pi, ProbabilityBoundsAndMonotonicity) {
  const double pi_better = probability_of_improvement(-1.0, 1.0, 0.0);
  const double pi_worse = probability_of_improvement(1.0, 1.0, 0.0);
  EXPECT_GT(pi_better, 0.5);
  EXPECT_LT(pi_worse, 0.5);
  EXPECT_DOUBLE_EQ(probability_of_improvement(-1.0, 0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(probability_of_improvement(1.0, 0.0, 0.0), 0.0);
}

// ---- dispatch ------------------------------------------------------------------------

TEST(ScoreAcquisition, FeasibilityScalesEi) {
  AcquisitionInputs in;
  in.mean = -0.5;
  in.variance = 1.0;
  in.incumbent = 0.0;
  in.prob_feasible = 1.0;
  const double full = score_acquisition(AcquisitionKind::kEi, in);
  in.prob_feasible = 0.25;
  const double quarter = score_acquisition(AcquisitionKind::kEi, in);
  EXPECT_NEAR(quarter, full * 0.25, 1e-12);
}

TEST(ScoreAcquisition, FeasibilityPenalizesUcbAdditively) {
  AcquisitionInputs in;
  in.mean = -3.0;  // negative score region
  in.variance = 0.5;
  in.incumbent = 0.0;
  in.prob_feasible = 1.0;
  const double feasible = score_acquisition(AcquisitionKind::kUcb, in);
  in.prob_feasible = 0.1;
  const double risky = score_acquisition(AcquisitionKind::kUcb, in);
  EXPECT_GT(feasible, risky);
}

TEST(ScoreAcquisition, EiPerCostPrefersCheaperCandidate) {
  AcquisitionInputs cheap;
  cheap.mean = -0.5;
  cheap.variance = 1.0;
  cheap.incumbent = 0.0;
  cheap.log_cost = std::log(100.0);
  AcquisitionInputs expensive = cheap;
  expensive.log_cost = std::log(10000.0);
  EXPECT_GT(score_acquisition(AcquisitionKind::kEiPerCost, cheap),
            score_acquisition(AcquisitionKind::kEiPerCost, expensive));
}

TEST(ScoreAcquisition, LogEiOrdersLikeEi) {
  AcquisitionInputs a, b;
  a.mean = -0.5;
  a.variance = 1.0;
  a.incumbent = 0.0;
  b = a;
  b.mean = 0.5;
  EXPECT_GT(score_acquisition(AcquisitionKind::kEi, a),
            score_acquisition(AcquisitionKind::kEi, b));
  EXPECT_GT(score_acquisition(AcquisitionKind::kLogEi, a),
            score_acquisition(AcquisitionKind::kLogEi, b));
}

TEST(AcquisitionKindStrings, RoundTrip) {
  for (const auto kind :
       {AcquisitionKind::kEi, AcquisitionKind::kLogEi, AcquisitionKind::kUcb,
        AcquisitionKind::kPi, AcquisitionKind::kEiPerCost}) {
    EXPECT_EQ(acquisition_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(acquisition_from_string("thompson"), std::invalid_argument);
}

}  // namespace
}  // namespace autodml::core
