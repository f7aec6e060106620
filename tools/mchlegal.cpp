// mchlegal — command-line mixed-cell-height legalizer.
//
//   mchlegal <input> [options]
//   mchlegal --help        prints the option list (kUsage below)
//
// Input formats (by extension):
//   .aux         Bookshelf bundle (ISPD contest format)
//   .mchdesign   this library's native design format
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "db/legality.h"
#include "dp/detailed.h"
#include "eval/suite_runner.h"
#include "gen/transform.h"
#include "io/bookshelf.h"
#include "io/design_io.h"
#include "io/svg.h"
#include "linalg/simd.h"
#include "obs/obs.h"
#include "runtime/options.h"
#include "util/log.h"

namespace {

constexpr const char* kUsage =
    "usage: mchlegal <input.aux|input.mchdesign> [options]\n"
    "\n"
    "options:\n"
    "  --algo <mmsim|tetris|local|local-imp|mixed-abacus>   (default mmsim)\n"
    "  --double <fraction>   apply the paper's mixed-height transform first\n"
    "  --dp                  run detailed placement after legalization\n"
    "  --out <path>          write result (.pl for .aux inputs, .mchdesign\n"
    "                        otherwise; default <input-stem>_legal.<ext>)\n"
    "  --svg <path>          write an SVG layout plot\n"
    "  --lambda <v>          subcell penalty lambda       (default 1000)\n"
    "  --beta <v> --theta <v>  MMSIM splitting parameters (default 0.5/0.5)\n"
    "  --tolerance <v>       MMSIM stop tolerance         (default 1e-4)\n"
    "  --partition <off|tiered>  solve path: tiered per-component solve\n"
    "                        (default) or the monolithic oracle\n"
    "  --simd <auto|avx512|avx2|off>   SIMD kernel level (default: MCH_SIMD\n"
    "                        env, else auto = highest the CPU supports; the\n"
    "                        kernels are bitwise identical at every level,\n"
    "                        so this is a perf knob, not a result knob)\n"
    "  --seed <n>            seed for --double            (default 1)\n"
    "  --threads <n>         worker threads (0 = auto; also MCH_THREADS)\n"
    "  --trace <path>        write a Chrome trace-event JSON of the run (open\n"
    "                        in chrome://tracing or https://ui.perfetto.dev;\n"
    "                        also MCH_TRACE=<path>)\n"
    "  --metrics <path>      write the metrics-registry JSON snapshot\n"
    "                        (counters/gauges/latency histograms; also\n"
    "                        MCH_METRICS=<path>)\n"
    "  --quiet               suppress the report\n"
    "  -h, --help            print this list and exit\n";

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "error: %s\nrun mchlegal --help for usage\n",
               message);
  std::exit(2);
}

bool ends_with(const std::string& value, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return value.size() >= n &&
         value.compare(value.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mch;
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argv[1][0] == '-') usage_error("the input file must come first");

  runtime::configure_threads_from_cli(argc, argv);
  // The recovery/kernels report lines below go through the leveled logger at
  // kInfo; raise the default level so they still print, without overriding
  // an explicit MCH_LOG_LEVEL.
  if (std::getenv("MCH_LOG_LEVEL") == nullptr)
    set_log_level(LogLevel::kInfo);
  const std::string input = argv[1];
  std::string algo = "mmsim";
  std::string out_path;
  std::string svg_path;
  double double_fraction = 0.0;
  bool run_dp = false;
  bool quiet = false;
  std::uint64_t seed = 1;
  legal::FlowOptions flow_options;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--algo") algo = value();
    else if (arg == "--out") out_path = value();
    else if (arg == "--svg") svg_path = value();
    else if (arg == "--double") double_fraction = std::atof(value().c_str());
    else if (arg == "--dp") run_dp = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--threads") value();  // consumed by the runtime above
    else if (arg.rfind("--threads=", 0) == 0) {}  // ditto, inline form
    else if (arg == "--trace") obs::set_trace_path(value());
    else if (arg == "--metrics") obs::set_metrics_path(value());
    else if (arg == "--lambda")
      flow_options.solver.model.lambda = std::atof(value().c_str());
    else if (arg == "--beta")
      flow_options.solver.mmsim.beta = std::atof(value().c_str());
    else if (arg == "--theta")
      flow_options.solver.mmsim.theta = std::atof(value().c_str());
    else if (arg == "--tolerance")
      flow_options.solver.mmsim.tolerance = std::atof(value().c_str());
    else if (arg == "--partition") {
      const std::string mode = value();
      if (mode == "off")
        flow_options.solver.partition = legal::PartitionMode::kOff;
      else if (mode == "tiered")
        flow_options.solver.partition = legal::PartitionMode::kTiered;
      else
        usage_error("unknown --partition mode (off|tiered)");
    } else if (arg == "--simd") {
      const std::string level = value();
      if (level == "off" || level == "scalar" || level == "0")
        linalg::set_simd_level(linalg::SimdLevel::kScalar);
      else if (level == "avx2")
        linalg::set_simd_level(linalg::SimdLevel::kAvx2);
      else if (level == "avx512")
        linalg::set_simd_level(linalg::SimdLevel::kAvx512);
      else if (level == "auto")
        linalg::set_simd_level(linalg::simd_level_supported());
      else
        usage_error("unknown --simd level (auto|avx512|avx2|off)");
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else
      usage_error(("unknown option " + arg).c_str());
  }

  // Load.
  const bool bookshelf = ends_with(input, ".aux");
  db::Design design;
  try {
    design = bookshelf ? io::load_bookshelf(input) : io::load_design(input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load %s: %s\n", input.c_str(), e.what());
    return 1;
  }
  if (!quiet)
    std::printf("loaded %s: %zu cells (%zu fixed), %zu nets\n",
                design.name.c_str(), design.num_cells(),
                design.num_fixed_cells(), design.num_nets());

  if (double_fraction > 0.0) {
    const gen::MixedHeightTransformStats t =
        gen::make_mixed_height(design, double_fraction, seed);
    if (!quiet)
      std::printf("doubled %zu cells (%.0f%%)\n", t.converted_cells,
                  double_fraction * 100.0);
  }

  // Legalize.
  eval::Legalizer which;
  if (algo == "mmsim") which = eval::Legalizer::kMmsim;
  else if (algo == "tetris") which = eval::Legalizer::kTetris;
  else if (algo == "local") which = eval::Legalizer::kLocalBase;
  else if (algo == "local-imp") which = eval::Legalizer::kLocalImproved;
  else if (algo == "mixed-abacus") which = eval::Legalizer::kMixedAbacus;
  else usage_error("unknown --algo");

  eval::RunResult result;
  try {
    result = eval::run_legalizer(design, which, flow_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "legalization failed: %s\n", e.what());
    return 1;
  }

  dp::DetailedPlacementStats dp_stats;
  if (run_dp) dp_stats = dp::refine(design);

  if (!quiet) {
    std::printf("algorithm:           %s\n", eval::to_string(which));
    std::printf("legal:               %s\n",
                result.legal ? "yes" : result.legality_summary.c_str());
    std::printf("total displacement:  %.1f sites (mean %.3f)\n",
                result.disp.total_sites, result.disp.mean_sites);
    std::printf("delta HPWL:          %.4f%%\n", result.delta_hpwl * 100.0);
    std::printf("runtime:             %.3f s\n", result.seconds);
    std::printf("peak RSS:            %.1f MB\n", result.peak_rss_mb);
    if (which == eval::Legalizer::kMmsim) {
      std::printf("solver:              %zu iterations%s, %zu illegal "
                  "cells fixed by allocation\n",
                  result.solver_iterations,
                  result.solver_converged ? "" : " (NOT converged)",
                  result.illegal_after_solver);
      if (result.solver_components > 0)
        std::printf("decomposition:       %zu components (largest %zu), "
                    "%zu component iterations\n",
                    result.solver_components, result.solver_max_component,
                    result.solver_component_iterations);
      std::printf("active-set polish:   %zu MMSIM system(s) stopped on an "
                  "exact active-set solve\n",
                  result.solver_components_polished);
      if (result.solver_recovery.attempted() || !result.solver_converged) {
        const legal::RecoveryStats& rec = result.solver_recovery;
        MCH_LOG(kInfo) << "recovery: " << rec.component_ladders
                       << " ladder(s) past the primary rung ("
                       << rec.ladder_attempts
                       << " attempts), " << rec.recovered_components
                       << " recovered, " << rec.clamped_components
                       << " clamped component(s) / " << rec.clamped_cells
                       << " cell(s); audit "
                       << (!rec.audit_ran    ? "not run"
                           : rec.audit_legal ? "legal"
                                             : rec.audit_summary.c_str());
        for (const legal::SolveFailure& failure : rec.failures)
          MCH_LOG(kInfo) << "recovery failure: " << failure.summary();
      }
      if (result.solver_phase.total() > 0.0)
        std::printf("solver phases:       kernel %.2f ms, spmv %.2f ms, "
                    "thomas %.2f ms, reduction %.2f ms (solve %.2f ms)\n",
                    result.solver_phase.kernel_seconds * 1e3,
                    result.solver_phase.spmv_seconds * 1e3,
                    result.solver_phase.thomas_seconds * 1e3,
                    result.solver_phase.reduction_seconds * 1e3,
                    result.solver_solve_seconds * 1e3);
      MCH_LOG(kInfo) << "kernels: simd "
                     << linalg::simd_level_name(result.solver_simd);
    }
    if (run_dp)
      std::printf("detailed placement:  HPWL %.0f -> %.0f (%.3f%%), "
                  "%zu moves\n",
                  dp_stats.hpwl_before, dp_stats.hpwl_after,
                  dp_stats.improvement_fraction() * 100.0,
                  dp_stats.reorder_moves + dp_stats.swap_moves +
                      dp_stats.shift_moves);
  }

  // Write outputs.
  if (out_path.empty()) {
    const std::size_t dot = input.find_last_of('.');
    out_path = input.substr(0, dot) + "_legal" +
               (bookshelf ? ".pl" : ".mchdesign");
  }
  try {
    if (bookshelf)
      io::save_bookshelf_pl(out_path, design);
    else
      io::save_design(out_path, design);
    if (!quiet) std::printf("wrote %s\n", out_path.c_str());
    if (!svg_path.empty()) {
      io::SvgOptions svg;
      svg.pixels_per_unit = 1200.0 / design.chip().width();
      io::save_svg(svg_path, design, svg);
      if (!quiet) std::printf("wrote %s\n", svg_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to write output: %s\n", e.what());
    return 1;
  }

  obs::set_metrics_attribute("tool", "mchlegal");
  obs::set_metrics_attribute("design", design.name);
  obs::set_metrics_attribute("algo", eval::to_string(which));
  obs::set_metrics_attribute(
      "simd", linalg::simd_level_name(linalg::simd_level()));
  obs::flush_artifacts();
  return result.legal ? 0 : 1;
}
