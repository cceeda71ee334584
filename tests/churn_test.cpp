// Tests for the churn models and schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/engine.h"
#include "workload/churn.h"

namespace p2plb::workload {
namespace {

TEST(ChurnModel, SessionMeansMatch) {
  Rng rng(1001);
  for (const auto model :
       {SessionModel::kExponential, SessionModel::kPareto}) {
    ChurnParams params;
    params.session_model = model;
    params.session_mean = 100.0;
    params.pareto_alpha = 3.0;  // finite variance for a tight test
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
      s.add(sample_session_length(params, rng));
    EXPECT_NEAR(s.mean(), 100.0, 2.5) << "model " << static_cast<int>(model);
  }
}

TEST(ChurnModel, ParetoIsHeavierTailedThanExponential) {
  Rng rng(1002);
  ChurnParams exp_params;
  exp_params.session_model = SessionModel::kExponential;
  ChurnParams par_params;
  par_params.session_model = SessionModel::kPareto;
  par_params.pareto_alpha = 1.5;
  // Same mean; compare the tail mass beyond 10x the mean.
  int exp_tail = 0, par_tail = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (sample_session_length(exp_params, rng) >
        10.0 * exp_params.session_mean)
      ++exp_tail;
    if (sample_session_length(par_params, rng) >
        10.0 * par_params.session_mean)
      ++par_tail;
  }
  EXPECT_GT(par_tail, 5 * exp_tail);
}

TEST(ChurnSchedule, OrderedAndPaired) {
  Rng rng(1003);
  ChurnParams params;
  params.join_interarrival_mean = 5.0;
  params.session_mean = 50.0;
  const auto schedule = generate_churn_schedule(params, 1000.0, rng);
  ASSERT_FALSE(schedule.empty());
  std::map<std::uint64_t, int> seen;  // session -> join(+1)/leave(-1) order
  sim::Time prev = 0.0;
  for (const auto& e : schedule) {
    EXPECT_GE(e.at, prev);
    EXPECT_LT(e.at, 1000.0);
    prev = e.at;
    if (e.kind == ChurnEvent::Kind::kJoin) {
      EXPECT_EQ(seen[e.session], 0);  // join before leave, once
      seen[e.session] = 1;
    } else {
      EXPECT_EQ(seen[e.session], 1);  // leave only after its join
      seen[e.session] = 2;
    }
  }
}

TEST(ChurnSchedule, PopulationTracksLittlesLaw) {
  Rng rng(1004);
  ChurnParams params;
  params.join_interarrival_mean = 2.0;
  params.session_mean = 100.0;
  params.session_model = SessionModel::kExponential;
  const double expected = steady_state_population(params);  // 50
  const auto schedule = generate_churn_schedule(params, 4000.0, rng);
  // Count the live population at a late instant.
  int population = 0;
  for (const auto& e : schedule) {
    if (e.at > 3000.0) break;
    population += e.kind == ChurnEvent::Kind::kJoin ? 1 : -1;
  }
  EXPECT_NEAR(population, expected, 4.0 * std::sqrt(expected));
}

TEST(ChurnSchedule, RejectsBadParams) {
  Rng rng(1005);
  ChurnParams params;
  params.join_interarrival_mean = 0.0;
  EXPECT_THROW((void)generate_churn_schedule(params, 10.0, rng),
               PreconditionError);
  ChurnParams bad_alpha;
  bad_alpha.pareto_alpha = 1.0;
  EXPECT_THROW((void)sample_session_length(bad_alpha, rng),
               PreconditionError);
}

}  // namespace
}  // namespace p2plb::workload
