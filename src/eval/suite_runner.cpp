#include "eval/suite_runner.h"

#include <cstdlib>
#include <cstring>
#include <ostream>

#include "baselines/local.h"
#include "baselines/mixed_abacus.h"
#include "baselines/tetris.h"
#include "db/legality.h"
#include "legal/tetris_alloc.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "service/session.h"
#include "util/rss.h"
#include "util/timer.h"

namespace mch::eval {

namespace {

/// MCH_SESSION=1 routes every MMSIM run through a resident
/// service::LegalizationSession (the ctest `.session` variants set it).
bool run_via_session() {
  const char* env = std::getenv("MCH_SESSION");
  return env != nullptr && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "") != 0;
}

}  // namespace

const char* to_string(Legalizer legalizer) {
  switch (legalizer) {
    case Legalizer::kMmsim:
      return "mmsim";
    case Legalizer::kTetris:
      return "tetris";
    case Legalizer::kLocalBase:
      return "local";
    case Legalizer::kLocalImproved:
      return "local-imp";
    case Legalizer::kMixedAbacus:
      return "mixed-abacus";
  }
  return "unknown";
}

RunResult run_legalizer(db::Design& design, Legalizer which,
                        const legal::FlowOptions& mmsim_options) {
  RunResult result;
  result.benchmark = design.name;
  result.legalizer = which;
  result.num_cells = design.num_cells();
  result.num_single = design.count_cells_with_height(1);
  result.num_double = design.count_cells_with_height(2);
  result.density = design.density();
  result.gp_hpwl = gp_hpwl(design);

  design.reset_positions_to_gp();

  Timer timer;
  switch (which) {
    case Legalizer::kMmsim: {
      if (run_via_session()) {
        // MCH_SESSION=1: serve the run through a resident
        // service::LegalizationSession instead of the one-shot flow, so the
        // whole eval/integration suite exercises the session path. A full
        // legalize through the session is the same pipeline (it reuses
        // legal::legalize with a prebuilt model), so all metrics below are
        // comparable.
        service::SessionOptions session_options;
        session_options.flow = mmsim_options;
        session_options.verify = false;  // verified uniformly below
        service::LegalizationSession session(design, session_options);
        const service::SessionResult served = session.full_legalize();
        design.cells() = session.design().cells();
        result.via_session = true;
        result.illegal_after_solver = served.allocation.illegal_cells;
        result.solver_iterations = served.solver.iterations;
        result.solver_converged = served.solver.converged;
        result.solver_solve_seconds = served.solver.solve_seconds;
        result.solver_phase = served.solver.phase;
        result.solver_components = served.solver.num_components;
        result.solver_max_component = served.solver.max_component_size;
        result.solver_mean_component = served.solver.mean_component_size;
        result.solver_component_iterations =
            served.solver.component_iterations;
        result.solver_components_polished =
            served.solver.components_polished;
        result.solver_simd = served.solver.simd_level;
        result.solver_recovery = served.solver.recovery;
        result.session_dirty_components = served.session.components_dirty;
        result.session_reused_components = served.session.components_reused;
        result.session_warm_hits = served.session.warm_start_hits;
        result.session_warm_rate = served.session.warm_start_rate;
        break;
      }
      legal::FlowOptions options = mmsim_options;
      options.verify = false;  // verified uniformly below
      const legal::FlowResult flow = legal::legalize(design, options);
      result.illegal_after_solver = flow.allocation.illegal_cells;
      result.solver_iterations = flow.solver.iterations;
      result.solver_converged = flow.solver.converged;
      result.solver_solve_seconds = flow.solver.solve_seconds;
      result.solver_phase = flow.solver.phase;
      result.solver_components = flow.solver.num_components;
      result.solver_max_component = flow.solver.max_component_size;
      result.solver_mean_component = flow.solver.mean_component_size;
      result.solver_component_iterations = flow.solver.component_iterations;
      result.solver_components_polished = flow.solver.components_polished;
      result.solver_simd = flow.solver.simd_level;
      result.solver_recovery = flow.solver.recovery;
      break;
    }
    case Legalizer::kTetris:
      baselines::tetris_legalize(design);
      break;
    case Legalizer::kLocalBase:
      baselines::local_legalize(design, baselines::LocalVariant::kBase);
      break;
    case Legalizer::kLocalImproved:
      baselines::local_legalize(design, baselines::LocalVariant::kImproved);
      break;
    case Legalizer::kMixedAbacus:
      baselines::mixed_abacus_legalize(design);
      // Cluster output is continuous; snap to sites the same way the
      // MMSIM flow does.
      legal::tetris_allocate(design);
      break;
  }
  result.seconds = timer.seconds();

  const db::LegalityReport report = db::check_legality(design);
  result.legal = report.legal();
  result.legality_summary = report.summary();

  result.disp = displacement(design);
  result.hpwl = hpwl(design);
  result.delta_hpwl =
      result.gp_hpwl > 0.0 ? (result.hpwl - result.gp_hpwl) / result.gp_hpwl
                           : 0.0;
  result.peak_rss_mb = util::peak_rss_mb();
  return result;
}

std::vector<RunResult> SuiteRunner::run(const std::vector<SuiteJob>& jobs,
                                        std::ostream* progress) const {
  std::vector<RunResult> results(jobs.size());
  // Grain 1: one design per task. Each job builds its design from the spec
  // (the generator draws from a per-design RNG seeded by the spec and the
  // generator options, so jobs are fully independent), and nested
  // parallelism inside the solver becomes stealable child jobs on the
  // shared scheduler, so workers idling between designs help finish a
  // neighbor's solve. Results are written into the job's own slot — order
  // and content are therefore independent of the thread count and of who
  // steals what.
  runtime::parallel_for(
      std::size_t{0}, jobs.size(), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          obs::TraceSpan span("suite.job");
          span.arg("benchmark", obs::intern(jobs[j].spec.name))
              .arg("legalizer", to_string(jobs[j].legalizer));
          db::Design design = gen::generate_design(jobs[j].spec, gen_options_);
          results[j] =
              run_legalizer(design, jobs[j].legalizer, jobs[j].options);
          span.arg("cells", results[j].num_cells)
              .arg("legal", results[j].legal);
          obs::histogram("suite.job_seconds").observe(results[j].seconds);
          // Writing one character to a standard stream is race-free per the
          // iostreams guarantees; dots may arrive out of order, which is
          // fine for a progress ticker.
          if (progress) *progress << '.' << std::flush;
        }
      });
  return results;
}

std::vector<RunResult> SuiteRunner::run_cross(
    const std::vector<gen::BenchmarkSpec>& specs,
    const std::vector<Legalizer>& methods,
    const legal::FlowOptions& mmsim_options, std::ostream* progress) const {
  std::vector<SuiteJob> jobs;
  jobs.reserve(specs.size() * methods.size());
  for (const gen::BenchmarkSpec& spec : specs)
    for (const Legalizer method : methods)
      jobs.push_back({spec, method, mmsim_options});
  return run(jobs, progress);
}

}  // namespace mch::eval
