// Figure 29: ablation of the Decompose optimization (§7.3, §8.5) on
//   Q8 :- R11(A1), R12(A1,B1), R21(A2), R22(A2,B2), R31(A3), R32(A3,B3)
// with 25 tuples in each Ri1 and 50 in each Ri2 over domain [1, 100].
//
// Three strategies, as in the paper:
//   1. full enumeration of (k1, k2, k3) vectors (Eq. 2);
//   2. pairwise decomposition with the printed Algorithm 5 inner loop;
//   3. the improved dynamic program (closed-form minimal k1).
// Shape to reproduce: improved DP << pairwise << full enumeration.
// The DP strategies report the median of repeated warm runs; full
// enumeration stays at one cold sample per point.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "workload/synthetic.h"

namespace adp::bench {
namespace {

enum Strategy { kFullEnum = 0, kPairwise = 1, kImproved = 2 };

void Fig29DecomposeOpt(benchmark::State& state) {
  const std::int64_t rho_tenths = state.range(0);  // ρ in tenths of percent
  const Strategy strategy = static_cast<Strategy>(state.range(1));
  const bool large = state.range(2) != 0;

  const ConjunctiveQuery q = MakeQ8();
  // Small scale runs all three strategies; the large scale drops the
  // exponential full enumeration (as the paper stops its curve).
  const Database db = large
                          ? MakeUniformDatabase(q, {25, 300}, 100, /*seed=*/42)
                          : MakeUniformDatabase(q, {25, 50}, 100, /*seed=*/42);
  const std::int64_t outputs = OutputCount(q, db);
  const std::int64_t k =
      std::max<std::int64_t>(1, outputs * rho_tenths / 1000);

  AdpOptions options;
  switch (strategy) {
    case kFullEnum:
      options.decompose_strategy =
          AdpOptions::DecomposeStrategy::kFullEnumeration;
      break;
    case kPairwise:
      options.decompose_strategy =
          AdpOptions::DecomposeStrategy::kPairwiseNaive;
      break;
    case kImproved:
      options.decompose_strategy =
          AdpOptions::DecomposeStrategy::kImprovedDP;
      break;
  }
  AdpSolution sol;
  for (auto _ : state) {
    sol = ComputeAdp(q, db, k, options);
    benchmark::DoNotOptimize(sol.cost);
  }
  Report(state, outputs, k, sol);
}

// The paper plots ρ = 1% and 10%; 25% extends the exponential blowup of the
// full-enumeration strategy.
constexpr std::int64_t kRhoTenths[] = {10, 100, 250};

void FullEnumerationSweep(benchmark::internal::Benchmark* b) {
  // Small scale only; the large scale drops the exponential strategy (as the
  // paper stops its curve).
  for (std::int64_t rho_tenths : kRhoTenths) {
    b->Args({rho_tenths, kFullEnum, /*large=*/0});
  }
}

void DynamicProgramSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t rho_tenths : kRhoTenths) {
    for (std::int64_t large : {0, 1}) {
      for (std::int64_t strategy : {kPairwise, kImproved}) {
        b->Args({rho_tenths, strategy, large});
      }
    }
  }
}

// Full enumeration takes up to hundreds of ms per solve: one sample each.
BENCHMARK(Fig29DecomposeOpt)
    ->Apply(FullEnumerationSweep)
    ->ArgNames({"rho_tenths", "strategy", "large"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The two DP strategies are compared warm: repeated runs, reported as the
// median over repetitions (a single first sample is cold and noisy).
BENCHMARK(Fig29DecomposeOpt)
    ->Apply(DynamicProgramSweep)
    ->ArgNames({"rho_tenths", "strategy", "large"})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace adp::bench

BENCHMARK_MAIN();
