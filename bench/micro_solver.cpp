// Google-benchmark microbenchmarks of the pipeline stages, demonstrating
// the linear-time scaling that underpins the paper's efficiency claim:
// model build, MMSIM setup + iterations, PlaceRow collapse, and the
// Tetris-like allocation all scale ~O(n).
//
// Run with --scaling for the thread-scaling sweep instead: MMSIM iteration
// throughput at 1/2/4/8 threads on the largest micro case (snapshot in
// results/micro_solver_scaling.txt). --threads N / MCH_THREADS set the
// thread count for the regular microbenchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abacus.h"
#include "bench_common.h"
#include "gen/generator.h"
#include "lcp/mmsim.h"
#include "linalg/csr.h"
#include "linalg/simd.h"
#include "legal/flow.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "runtime/options.h"
#include "runtime/runtime.h"
#include "util/timer.h"

namespace {

using namespace mch;

const db::Design& cached_design(std::size_t cells) {
  static std::map<std::size_t, db::Design> cache;
  auto it = cache.find(cells);
  if (it == cache.end()) {
    gen::GeneratorOptions options;
    options.seed = 7;
    options.nets_per_cell = 0.0;
    it = cache
             .emplace(cells, gen::generate_random_design(
                                 cells - cells / 10, cells / 10, 0.6,
                                 options))
             .first;
  }
  return it->second;
}

void BM_ModelBuild(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legal::build_model(design, rows));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ModelBuild)->Range(1000, 64000)->Complexity(benchmark::oN);

void BM_MmsimIterations(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  lcp::MmsimOptions options;
  options.max_iterations = 100;  // fixed budget: measures per-iteration cost
  options.tolerance = 0.0;
  options.residual_check = false;
  const lcp::MmsimSolver solver(model.qp, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MmsimIterations)->Range(1000, 64000)->Complexity(benchmark::oN);

/// The dispatch level the process started with (MCH_SIMD clamped to the
/// CPU), captured before any benchmark flips it.
linalg::SimdLevel default_simd_level() {
  static const linalg::SimdLevel level = linalg::simd_level();
  return level;
}

/// Installs the SIMD dispatch level a benchmark's arg asks for (0 = scalar
/// reference, 1 = the process default, i.e. MCH_SIMD/auto) and returns a
/// label suffix. The level is process-global, so each A/B run sets it
/// explicitly.
std::string apply_simd_arg(std::int64_t arg) {
  const linalg::SimdLevel level = linalg::set_simd_level(
      arg != 0 ? default_simd_level() : linalg::SimdLevel::kScalar);
  return std::string("/simd:") + linalg::simd_level_name(level);
}

// A/B of the fused single-sweep iteration kernels against the retained
// stage-by-stage reference path (arg 1: 0 = reference, 1 = fused; arg 2:
// 0 = scalar kernels, 1 = highest supported SIMD level). All double-kernel
// combinations compute bitwise-identical iterates
// (tests/lcp/mmsim_fused_test.cpp, tests/lcp/mmsim_simd_test.cpp), so the
// ratios are pure kernel-structure / vector-width speedup.
void BM_MmsimFusedVsUnfused(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  lcp::MmsimOptions options;
  options.max_iterations = 100;  // fixed budget: measures per-iteration cost
  options.tolerance = 0.0;
  options.residual_check = false;
  options.fused = state.range(1) != 0;
  const std::string simd = apply_simd_arg(state.range(2));
  const lcp::MmsimSolver solver(model.qp, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetComplexityN(state.range(0));
  state.SetLabel((options.fused ? "fused" : "reference") + simd);
}
BENCHMARK(BM_MmsimFusedVsUnfused)
    ->ArgsProduct({{8000, 32000, 64000}, {0, 1}, {0, 1}});

// CSR sparse engine: one fused two-vector traversal (multiply_add2) against
// the two sequential single-vector products it replaces — the access
// pattern of the MMSIM rhs accumulation. arg 1: 0 = sequential pair,
// 1 = fused; arg 2: 0 = scalar kernels, 1 = highest supported SIMD level.
// The transpose variant runs through the cached Bᵀ view.
void csr_spmv(benchmark::State& state, bool transpose) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  const linalg::CsrMatrix& b = model.qp.B;
  const std::size_t xs = transpose ? b.rows() : b.cols();
  const std::size_t ys = transpose ? b.cols() : b.rows();
  const lcp::Vector x1(xs, 1.0), x2(xs, 0.5);
  lcp::Vector y(ys, 0.0);
  const bool fused = state.range(1) != 0;
  const std::string simd = apply_simd_arg(state.range(2));
  for (auto _ : state) {
    if (transpose) {
      if (fused) {
        b.multiply_transpose_add2(0.5, x1, -1.0, x2, y);
      } else {
        b.multiply_transpose_add(0.5, x1, y);
        b.multiply_transpose_add(-1.0, x2, y);
      }
    } else {
      if (fused) {
        b.multiply_add2(0.5, x1, -1.0, x2, y);
      } else {
        b.multiply_add(0.5, x1, y);
        b.multiply_add(-1.0, x2, y);
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(state.range(0));
  state.SetLabel((fused ? "fused" : "pair") + simd);
}

void BM_CsrSpmv(benchmark::State& state) { csr_spmv(state, false); }
BENCHMARK(BM_CsrSpmv)->ArgsProduct({{8000, 64000}, {0, 1}, {0, 1}});

void BM_CsrSpmvTranspose(benchmark::State& state) { csr_spmv(state, true); }
BENCHMARK(BM_CsrSpmvTranspose)->ArgsProduct({{8000, 64000}, {0, 1}, {0, 1}});

void BM_MmsimSolveToConvergence(benchmark::State& state) {
  db::Design design = cached_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  const lcp::MmsimSolver solver(model.qp, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MmsimSolveToConvergence)->Range(1000, 16000);

// Obstacle-rich design for the decomposition benchmarks: fixed macros break
// the row chains, so the constraint graph falls into many independent
// components and the partitioned solve paths have real fan-out to exploit.
const db::Design& cached_obstacle_design(std::size_t cells) {
  static std::map<std::size_t, db::Design> cache;
  auto it = cache.find(cells);
  if (it == cache.end()) {
    gen::GeneratorOptions options;
    options.seed = 7;
    options.nets_per_cell = 0.0;
    options.fixed_macros = std::max<std::size_t>(4, cells / 250);
    it = cache
             .emplace(cells, gen::generate_random_design(
                                 cells - cells / 10, cells / 10, 0.6,
                                 options))
             .first;
  }
  return it->second;
}

void solve_partitioned(benchmark::State& state, legal::PartitionMode mode) {
  db::Design design =
      cached_obstacle_design(static_cast<std::size_t>(state.range(0)));
  const legal::RowAssignment rows = legal::assign_rows(design);
  legal::MmsimLegalizerOptions options;
  options.partition = mode;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legal::mmsim_legalize_continuous(design, rows, options));
  }
  state.SetComplexityN(state.range(0));
}

void BM_SolveMonolithic(benchmark::State& state) {
  solve_partitioned(state, legal::PartitionMode::kOff);
}
BENCHMARK(BM_SolveMonolithic)->Range(1000, 16000);

void BM_SolvePartitionTiered(benchmark::State& state) {
  solve_partitioned(state, legal::PartitionMode::kTiered);
}
BENCHMARK(BM_SolvePartitionTiered)->Range(1000, 16000);

void BM_PlaceRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<baselines::PlaceRowCell> cells;
  cells.reserve(n);
  double target = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    target += 3.0 + static_cast<double>(i % 5);
    cells.push_back({target * 0.8, 4.0});  // 20% compression: collapses
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::place_row(cells));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PlaceRow)->Range(256, 65536)->Complexity(benchmark::oN);

void BM_TetrisAllocate(benchmark::State& state) {
  const db::Design& base = cached_design(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    db::Design design = base;
    legal::assign_rows(design);
    state.ResumeTiming();
    benchmark::DoNotOptimize(legal::tetris_allocate(design));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TetrisAllocate)->Range(1000, 32000);

void BM_FullFlow(benchmark::State& state) {
  const db::Design& base = cached_design(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    db::Design design = base;
    state.ResumeTiming();
    legal::FlowOptions options;
    options.verify = false;
    benchmark::DoNotOptimize(legal::legalize(design, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullFlow)->Range(1000, 16000);

// Thread-scaling sweep: fixed-budget MMSIM iterations on the largest micro
// case at 1/2/4/8 threads, reporting iterations/s and speedup over one
// thread. Determinism means every run computes the identical iterates, so
// the sweep measures runtime overhead/scaling and nothing else. A second
// section sweeps the SIMD dispatch level at one thread — on few-core
// machines vector width, not threads, is where the per-iteration speedup
// comes from.
void run_scaling_sweep(mch::bench::JsonSnapshot& json) {
  constexpr std::size_t kCells = 64000;
  constexpr std::size_t kIterations = 200;
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

  std::printf("MMSIM thread-scaling sweep — %zu cells, %zu iterations per "
              "run (hardware threads available: %u)\n\n",
              kCells, kIterations, std::thread::hardware_concurrency());

  const mch::db::Design& design = cached_design(kCells);
  mch::db::Design copy = design;
  const mch::legal::RowAssignment rows = mch::legal::assign_rows(copy);
  const mch::legal::LegalizationModel model =
      mch::legal::build_model(copy, rows);
  mch::lcp::MmsimOptions options;
  options.max_iterations = kIterations;  // fixed budget: per-iteration cost
  options.tolerance = 0.0;
  options.residual_check = false;
  const mch::lcp::MmsimSolver solver(model.qp, options);

  std::printf("%8s %12s %14s %10s\n", "threads", "seconds", "iters/s",
              "speedup");
  double baseline_seconds = 0.0;
  for (const unsigned threads : thread_counts) {
    mch::runtime::Runtime::configure(threads);
    solver.solve();  // warm-up: page in buffers, spin up the pool
    mch::Timer timer;
    solver.solve();
    const double seconds = timer.seconds();
    if (threads == 1) baseline_seconds = seconds;
    std::printf("%8u %12.3f %14.1f %9.2fx\n", threads, seconds,
                static_cast<double>(kIterations) / seconds,
                baseline_seconds / seconds);
    json.add("threads/" + std::to_string(threads), kCells, seconds);
  }
  mch::runtime::Runtime::configure(1);
  std::printf("\nSpeedup is bounded by the serial Thomas solve "
              "(runtime/parallel.h documents the determinism contract) and "
              "by the physical core count of the machine.\n");

  std::printf("\nSIMD-level sweep — same case, 1 thread (CPU supports %s; "
              "double kernels are bitwise identical at every level)\n\n",
              mch::linalg::simd_level_name(
                  mch::linalg::simd_level_supported()));
  std::printf("%8s %12s %14s %10s\n", "simd", "seconds", "iters/s",
              "speedup");
  double scalar_seconds = 0.0;
  for (const mch::linalg::SimdLevel level :
       {mch::linalg::SimdLevel::kScalar, mch::linalg::SimdLevel::kAvx2,
        mch::linalg::SimdLevel::kAvx512}) {
    if (mch::linalg::set_simd_level(level) != level) continue;  // unsupported
    solver.solve();  // warm-up at this level
    mch::Timer timer;
    solver.solve();
    const double seconds = timer.seconds();
    const char* name = mch::linalg::simd_level_name(level);
    if (level == mch::linalg::SimdLevel::kScalar) scalar_seconds = seconds;
    std::printf("%8s %12.3f %14.1f %9.2fx\n", name, seconds,
                static_cast<double>(kIterations) / seconds,
                scalar_seconds / seconds);
    json.add(std::string("simd/") + name, kCells, seconds);
  }
  mch::linalg::set_simd_level(mch::linalg::simd_level_supported());
}

/// Console reporter that also records every per-iteration run into the
/// machine-readable snapshot: name (with the A/B label appended), the first
/// benchmark argument as "cells", and mean wall seconds per iteration.
/// Aggregates (BigO/RMS rows) stay text-only.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(mch::bench::JsonSnapshot& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      std::size_t cells = 0;
      const std::size_t slash = name.find('/');
      if (slash != std::string::npos)
        cells = static_cast<std::size_t>(
            std::atoll(name.c_str() + slash + 1));
      std::string record = name;
      if (!run.report_label.empty()) record += " [" + run.report_label + "]";
      json_.add(std::move(record), cells,
                run.real_accumulated_time /
                    static_cast<double>(run.iterations));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  mch::bench::JsonSnapshot& json_;
};

}  // namespace

int main(int argc, char** argv) {
  mch::runtime::configure_threads_from_cli(argc, argv);
  mch::bench::print_bench_banner("micro_solver");
  default_simd_level();  // pin the MCH_SIMD-resolved default for the A/Bs
  // Strip our flags so google-benchmark does not reject them.
  std::vector<char*> filtered;
  bool scaling = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      scaling = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 ||
               std::strcmp(argv[i], "-j") == 0) {
      ++i;  // skip the value
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
    } else {
      filtered.push_back(argv[i]);
    }
  }
  if (scaling) {
    mch::bench::JsonSnapshot json("micro_solver_scaling");
    run_scaling_sweep(json);
    mch::bench::print_peak_rss();
    json.write();
    return 0;
  }
  mch::bench::JsonSnapshot json("micro_solver");
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mch::bench::print_peak_rss();
  json.write();
  return 0;
}
