// Production-scale memory/time sweep (ROADMAP open item 3).
//
// Records cells vs. build/solve time vs. peak RSS for the 1M–10M-cell scale
// families of gen::generate_scale_design on the production memory spine:
// streaming CSR assembly with the union-find folded in, then the tiered
// solve, which extracts and releases one component per worker.
//
// Peak RSS (getrusage ru_maxrss) is monotone over a process's lifetime, so
// one process can measure at most one data point: the driver re-execs
// itself once per point (`--point <variant> <cells>`) and each child
// prints a single table row. The child mode doubles as the
// `ulimit -v` bigmem smoke in tools/verify.sh.
//
// Knobs: MCH_SCALE_POINTS=small|full (default full) picks the sweep size;
// MCH_BENCH_SEED as everywhere else.
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "db/legality.h"
#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "util/rss.h"
#include "util/timer.h"

namespace {

using namespace mch;

gen::ScaleVariant parse_variant(const std::string& name) {
  if (name == "baseline") return gen::ScaleVariant::kBaseline;
  if (name == "obstacle-heavy") return gen::ScaleVariant::kObstacleHeavy;
  if (name == "high-utilization") return gen::ScaleVariant::kHighUtilization;
  std::fprintf(stderr, "unknown scale variant '%s'\n", name.c_str());
  std::exit(2);
}

/// One measured point, executed in a child process so ru_maxrss reflects
/// this point alone. Prints exactly one row to stdout.
int run_point(const std::string& variant_name, std::size_t cells) {
  const gen::ScaleVariant variant = parse_variant(variant_name);
  db::Design design =
      gen::generate_scale_design(variant, cells, bench::bench_seed());
  const legal::RowAssignment base_rows = legal::assign_rows(design);

  // Model build: B is assembled directly into CSR with the union-find
  // riding on the constraint stream, so the partition comes out of the
  // build.
  Timer build_timer;
  legal::ConstraintPartition partition;
  const legal::LegalizationModel model =
      legal::build_model(design, base_rows, {}, &partition);
  const double build_seconds = build_timer.seconds();

  legal::MmsimLegalizerOptions options;
  options.prebuilt_model = &model;
  options.prebuilt_partition = &partition;
  Timer solve_timer;
  const legal::MmsimLegalizerStats stats =
      legal::mmsim_legalize_continuous(design, base_rows, options);
  const double solve_seconds = solve_timer.seconds();

  Timer allocate_timer;
  const legal::TetrisStats allocation = legal::tetris_allocate(design);
  legal::assign_orientations(design);
  const double allocate_seconds = allocate_timer.seconds();

  const db::LegalityReport report = db::check_legality(design);
  const bool legal = report.legal() && allocation.unplaced_cells == 0;

  std::printf("%-16s %9zu %9.2f %9.2f %9.2f %9zu %5s %11.1f\n",
              variant_name.c_str(), design.num_cells(), build_seconds,
              solve_seconds, allocate_seconds, stats.num_components,
              legal ? "yes" : "NO", util::peak_rss_mb());
  std::fflush(stdout);
  return legal && stats.converged ? 0 : 1;
}

struct Point {
  const char* variant;
  std::size_t cells;
};

int run_driver(const char* self) {
  bench::print_bench_banner("scaling_memory");
  std::printf(
      "# One child process per row (peak RSS is per-process-monotone):\n"
      "#   %s --point <variant> <cells>\n"
      "# build   = model assembly (CSR + union-find in one pass)\n"
      "%-16s %9s %9s %9s %9s %9s %5s %11s\n",
      self, "variant", "cells", "build_s", "solve_s", "alloc_s", "comps",
      "legal", "peak_rss_mb");
  // Children inherit this process's stdout and flush their own rows; when
  // stdout is a file (the snapshot) the banner would otherwise sit in the
  // parent's full buffer until exit and land *after* every row.
  std::fflush(stdout);

  const bool small = [] {
    const char* env = std::getenv("MCH_SCALE_POINTS");
    return env != nullptr && std::strcmp(env, "small") == 0;
  }();

  const std::array<Point, 6> full_points = {{
      {"baseline", 1000000},
      {"baseline", 2000000},
      {"baseline", 5000000},
      {"baseline", 10000000},
      {"obstacle-heavy", 1000000},
      {"high-utilization", 1000000},
  }};
  const std::array<Point, 3> small_points = {{
      {"baseline", 100000},
      {"obstacle-heavy", 100000},
      {"high-utilization", 100000},
  }};

  const Point* points = small ? small_points.data() : full_points.data();
  const std::size_t count = small ? small_points.size() : full_points.size();

  int worst = 0;
  bench::JsonSnapshot json("scaling_memory");
  for (std::size_t i = 0; i < count; ++i) {
    const std::string command = std::string(self) + " --point " +
                                points[i].variant + " " +
                                std::to_string(points[i].cells);
    Timer point_timer;
    const int rc = std::system(command.c_str());
    // Whole-child wall clock (generate + build + solve + allocate +
    // check); the per-phase seconds and the per-point peak RSS are in the
    // child's text row — ru_maxrss is per-process, so the parent cannot
    // report it here.
    json.add(points[i].variant, points[i].cells, point_timer.seconds());
    if (rc != 0) {
      std::printf("# point failed (rc %d): %s\n", rc, command.c_str());
      std::fflush(stdout);
      worst = 1;
    }
  }
  json.write();
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--point") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: %s --point <variant> <cells>\n", argv[0]);
      return 2;
    }
    return run_point(argv[2], static_cast<std::size_t>(
                                  std::strtoull(argv[3], nullptr, 10)));
  }
  mch::bench::bench_threads(argc, argv);
  return run_driver(argv[0]);
}
