// Google-benchmark microbenchmarks for the library's hot paths: noise
// injection (the per-sale cost the broker pays), the DP revenue optimizer,
// the exact exponential optimizer, isotonic regression, the simplex LP,
// and model training (the broker's one-time cost).

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "core/baselines.h"
#include "core/curves.h"
#include "core/exact_opt.h"
#include "core/interpolation.h"
#include "core/mechanism.h"
#include "core/revenue_opt.h"
#include "core/error_transform.h"
#include "data/synthetic.h"
#include "linalg/matrix.h"
#include "ml/trainer.h"
#include "optim/pava.h"
#include "optim/simplex.h"
#include "random/distributions.h"

namespace mbp {
namespace {

std::vector<core::CurvePoint> SweepCurve(size_t n) {
  core::MarketCurveOptions options;
  options.num_points = n;
  options.x_min = 10.0;
  options.x_max = 10.0 * static_cast<double>(n);
  options.value_shape = core::ValueShape::kConvex;
  options.demand_shape = core::DemandShape::kMidPeaked;
  return core::MakeMarketCurve(options).value();
}

void BM_GaussianPerturb(benchmark::State& state) {
  const auto d = static_cast<size_t>(state.range(0));
  core::GaussianMechanism mechanism;
  random::Rng rng(1);
  const linalg::Vector optimal = random::SampleNormalVector(rng, d, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.Perturb(optimal, 0.5, rng));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_GaussianPerturb)->Arg(16)->Arg(128)->Arg(1024);

void BM_RevenueDp(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const std::vector<core::CurvePoint> curve = SweepCurve(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaximizeRevenueDp(curve).value());
  }
}
BENCHMARK(BM_RevenueDp)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_RevenueExact(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const std::vector<core::CurvePoint> curve = SweepCurve(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaximizeRevenueExact(curve).value());
  }
}
BENCHMARK(BM_RevenueExact)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_Baseline(benchmark::State& state) {
  const std::vector<core::CurvePoint> curve = SweepCurve(16);
  const auto kind = static_cast<core::BaselineKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PriceWithBaseline(kind, curve).value());
  }
}
BENCHMARK(BM_Baseline)->DenseRange(0, 3);

void BM_Pava(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  random::Rng rng(3);
  std::vector<double> values(n);
  for (double& value : values) value = rng.NextDouble(-5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optim::IsotonicNonDecreasing(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Pava)->Arg(100)->Arg(10000);

void BM_DykstraInterpolation(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  random::Rng rng(4);
  std::vector<core::InterpolationPoint> points(n);
  for (size_t j = 0; j < n; ++j) {
    points[j] = {static_cast<double>(j + 1), rng.NextDouble(0, 100)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::InterpolateSquaredLoss(points).value());
  }
}
BENCHMARK(BM_DykstraInterpolation)->Arg(8)->Arg(64);

void BM_SimplexLp(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  random::Rng rng(5);
  std::vector<core::InterpolationPoint> points(n);
  for (size_t j = 0; j < n; ++j) {
    points[j] = {static_cast<double>(j + 1), rng.NextDouble(0, 100)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::InterpolateAbsoluteLoss(points).value());
  }
}
BENCHMARK(BM_SimplexLp)->Arg(4)->Arg(16)->Arg(32);

// Serial vs parallel GramMatrix at Table 3 dataset shapes: X^T X is the
// dominant cost of closed-form ridge training, so this is the kernel the
// thread pool must win on. Args: (rows, threads); d = 90 matches the
// YearPredictionMSD feature count, the widest Table 3 dataset.
void BM_GramMatrix(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const size_t d = 90;
  random::Rng rng(8);
  linalg::Matrix a(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      a(i, j) = random::SampleStandardNormal(rng);
    }
  }
  ParallelConfig parallel;
  parallel.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GramMatrix(a, parallel));
  }
  state.SetItemsProcessed(state.iterations() * n * d * d / 2);
}
BENCHMARK(BM_GramMatrix)
    ->Args({2000, 1})
    ->Args({2000, 4})
    ->Args({20000, 1})
    ->Args({20000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ErrorTransformBuild(benchmark::State& state) {
  const auto threads = static_cast<size_t>(state.range(0));
  data::Simulated1Options data_options;
  data_options.num_examples = 500;
  data_options.num_features = 8;
  const data::Dataset dataset =
      data::GenerateSimulated1(data_options).value();
  const linalg::Vector optimal =
      ml::TrainLinearRegression(dataset, 1e-3).value().model.coefficients();
  core::GaussianMechanism mechanism;
  const ml::SquareLoss loss(0.0);
  core::EmpiricalErrorTransform::BuildOptions build;
  build.grid_size = 12;
  build.trials_per_delta = 100;
  build.parallel.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::EmpiricalErrorTransform::Build(mechanism, optimal, loss,
                                             dataset, build)
            .value());
  }
}
BENCHMARK(BM_ErrorTransformBuild)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_TrainLinearRegression(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  data::Simulated1Options options;
  options.num_examples = n;
  options.num_features = 20;
  const data::Dataset dataset = data::GenerateSimulated1(options).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::TrainLinearRegression(dataset, 1e-3).value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TrainLinearRegression)->Arg(1000)->Arg(10000);

void BM_TrainLogisticNewton(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  data::Simulated2Options options;
  options.num_examples = n;
  options.num_features = 10;
  const data::Dataset dataset = data::GenerateSimulated2(options).value();
  const ml::LogisticLoss loss(0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::TrainNewton(loss, dataset, ml::ModelKind::kLogisticRegression)
            .value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TrainLogisticNewton)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace mbp

BENCHMARK_MAIN();
