#include "core/interpolation.h"

#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"

namespace mbp::core {
namespace {

constexpr double kTol = 1e-6;

bool RelaxedFeasible(const std::vector<InterpolationPoint>& points,
                     const std::vector<double>& prices) {
  for (size_t j = 0; j < prices.size(); ++j) {
    if (prices[j] < -kTol) return false;
    if (j > 0) {
      if (prices[j] + kTol < prices[j - 1]) return false;
      if (prices[j] / points[j].a >
          prices[j - 1] / points[j - 1].a + kTol) {
        return false;
      }
    }
  }
  return true;
}

std::vector<InterpolationPoint> ConcaveTargets() {
  // Already feasible: increasing, ratio decreasing.
  return {{1.0, 10.0}, {2.0, 14.0}, {3.0, 17.0}, {4.0, 19.0}};
}

std::vector<InterpolationPoint> ConvexTargets() {
  // Infeasible as-is: ratio increasing.
  return {{1.0, 1.0}, {2.0, 4.0}, {3.0, 9.0}, {4.0, 16.0}};
}

using SolverFn = StatusOr<InterpolationResult> (*)(
    const std::vector<InterpolationPoint>&);

StatusOr<InterpolationResult> SquaredDefault(
    const std::vector<InterpolationPoint>& points) {
  return InterpolateSquaredLoss(points);
}

// A solver with a fixed display name. gtest would otherwise print the
// function pointer, whose value changes from run to run under ASLR and
// so would change the registered test names with it.
struct NamedSolver {
  const char* name;
  SolverFn solve;
};

void PrintTo(const NamedSolver& solver, std::ostream* os) {
  *os << solver.name;
}

class InterpolationSolverTest
    : public ::testing::TestWithParam<NamedSolver> {};

TEST_P(InterpolationSolverTest, FeasibleTargetsAreReproducedExactly) {
  auto result = GetParam().solve(ConcaveTargets());
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(result->prices[j], ConcaveTargets()[j].target_price, 1e-5);
  }
  EXPECT_NEAR(result->objective, 0.0, 1e-4);
}

TEST_P(InterpolationSolverTest, OutputIsAlwaysFeasible) {
  random::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(8);
    std::vector<InterpolationPoint> points(n);
    for (size_t j = 0; j < n; ++j) {
      points[j] = {static_cast<double>(j + 1), rng.NextDouble(0.0, 100.0)};
    }
    auto result = GetParam().solve(points);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(RelaxedFeasible(points, result->prices)) << "trial "
                                                         << trial;
  }
}

TEST_P(InterpolationSolverTest, RejectsInvalidInputs) {
  const SolverFn solve = GetParam().solve;
  EXPECT_FALSE(solve({}).ok());
  EXPECT_FALSE(solve({{1.0, 5.0}, {1.0, 6.0}}).ok());  // duplicate a
  EXPECT_FALSE(solve({{1.0, -5.0}}).ok());             // negative P
}

INSTANTIATE_TEST_SUITE_P(Solvers, InterpolationSolverTest,
                         ::testing::Values(
                             NamedSolver{"squared", &SquaredDefault},
                             NamedSolver{"absolute",
                                         &InterpolateAbsoluteLoss}));

TEST(SquaredLossInterpolationTest, ProjectsConvexTargets) {
  auto result = InterpolateSquaredLoss(ConvexTargets());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(RelaxedFeasible(ConvexTargets(), result->prices));
  EXPECT_GT(result->objective, 0.0);  // cannot interpolate exactly
}

TEST(SquaredLossInterpolationTest, IsTheEuclideanProjection) {
  // Dykstra must beat (or match) any feasible candidate in squared
  // distance; compare against random feasible candidates.
  const std::vector<InterpolationPoint> points = ConvexTargets();
  auto result = InterpolateSquaredLoss(points);
  ASSERT_TRUE(result.ok());
  random::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    // Random feasible candidate: generate a decreasing ratio sequence and
    // rescale, then fix monotonicity by accumulation.
    std::vector<double> candidate(points.size());
    double ratio = rng.NextDouble(0.5, 6.0);
    for (size_t j = 0; j < points.size(); ++j) {
      candidate[j] = ratio * points[j].a;
      ratio *= rng.NextDouble(0.5, 1.0);  // ratio non-increasing
      // Enforce monotone non-decreasing prices.
      if (j > 0 && candidate[j] < candidate[j - 1]) {
        candidate[j] = candidate[j - 1];
        ratio = candidate[j] / points[j].a;
      }
    }
    if (!RelaxedFeasible(points, candidate)) continue;
    double objective = 0.0;
    for (size_t j = 0; j < points.size(); ++j) {
      const double diff = candidate[j] - points[j].target_price;
      objective += diff * diff;
    }
    EXPECT_GE(objective + 1e-6, result->objective);
  }
}

TEST(SquaredLossInterpolationTest, Converges) {
  auto result = InterpolateSquaredLoss(ConvexTargets());
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->iterations, 10000u);
}

TEST(AbsoluteLossInterpolationTest, ProjectsConvexTargets) {
  auto result = InterpolateAbsoluteLoss(ConvexTargets());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(RelaxedFeasible(ConvexTargets(), result->prices));
}

TEST(AbsoluteLossInterpolationTest, L1BeatsOrMatchesL2SolutionInL1) {
  // The LP minimizes the L1 objective, so its L1 error is <= the Dykstra
  // (L2) solution's L1 error.
  const std::vector<InterpolationPoint> points = ConvexTargets();
  auto l1 = InterpolateAbsoluteLoss(points);
  auto l2 = InterpolateSquaredLoss(points);
  ASSERT_TRUE(l1.ok() && l2.ok());
  double l2_solution_l1_error = 0.0;
  for (size_t j = 0; j < points.size(); ++j) {
    l2_solution_l1_error +=
        std::fabs(l2->prices[j] - points[j].target_price);
  }
  EXPECT_LE(l1->objective, l2_solution_l1_error + 1e-6);
}

TEST(AbsoluteLossInterpolationTest, SinglePointIsExact) {
  auto result = InterpolateAbsoluteLoss({{2.0, 7.0}});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->prices[0], 7.0, 1e-9);
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
}

TEST(SquaredLossInterpolationTest, AllZeroTargetsStayZero) {
  auto result = InterpolateSquaredLoss({{1.0, 0.0}, {2.0, 0.0}});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->prices[0], 0.0, 1e-9);
  EXPECT_NEAR(result->prices[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace mbp::core
