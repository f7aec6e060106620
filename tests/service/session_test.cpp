// LegalizationSession tests: the resident service must serve full solves
// bitwise identical to the one-shot flow, kFull ECO requests bitwise
// identical to a from-scratch legalization of the same design state, and
// incremental ECO requests that stay legal while re-solving only the dirty
// components. A malformed ECO batch is rejected whole, before any op
// applies. A seeded fuzz stream of mixed move/insert/erase batches checks
// all of these after every request, plus the resident model and partition
// against a from-scratch build, on generated and degenerate designs.
// Registered with the MT4/RECOVERY/TRACE variants so the same
// contracts hold with a 4-thread pool, with the fault-injected recovery
// ladder engaged, and with tracing on.
#include "service/session.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "db/legality.h"
#include "gen/generator.h"
#include "legal/flow.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"
#include "oracle/expect.h"
#include "oracle/expect_model.h"
#include "util/rng.h"

namespace mch::service {
namespace {

db::Design random_design(std::size_t cells, std::uint64_t seed,
                         double density = 0.7) {
  gen::GeneratorOptions options;
  options.seed = seed;
  return gen::generate_random_design(cells - cells / 10, cells / 10, density,
                                     options);
}

std::vector<EcoOp> jitter_moves(const db::Design& design, std::size_t count,
                                std::uint64_t seed) {
  const db::Chip& chip = design.chip();
  Rng rng(seed);
  std::vector<EcoOp> ops;
  while (ops.size() < count) {
    const auto id = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(design.num_cells()) - 1));
    const db::Cell& cell = design.cells()[id];
    if (cell.fixed || cell.erased) continue;
    ops.push_back(EcoOp::move(
        id, cell.gp_x + rng.normal(0.0, 4.0 * chip.site_width),
        cell.gp_y + rng.normal(0.0, 0.6 * chip.row_height)));
  }
  return ops;
}

void expect_same_positions(const db::Design& a, const db::Design& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (std::size_t c = 0; c < a.num_cells(); ++c) {
    ASSERT_EQ(a.cells()[c].erased, b.cells()[c].erased) << "cell " << c;
    if (a.cells()[c].erased) continue;
    EXPECT_EQ(a.cells()[c].x, b.cells()[c].x) << "cell " << c;
    EXPECT_EQ(a.cells()[c].y, b.cells()[c].y) << "cell " << c;
    EXPECT_EQ(a.cells()[c].flipped, b.cells()[c].flipped) << "cell " << c;
  }
}

TEST(SessionTest, FullLegalizeMatchesOneShotBitwise) {
  db::Design design = random_design(2000, 21);
  db::Design reference = design;

  LegalizationSession session(design);
  const SessionResult served = session.full_legalize(SolveMode::kFull);
  EXPECT_TRUE(served.legal) << served.legality_summary;
  EXPECT_EQ(served.kind, RequestKind::kFullLegalize);

  const legal::FlowResult one_shot = legal::legalize(reference);
  ASSERT_TRUE(one_shot.legal);

  expect_same_positions(session.design(), reference);
}

TEST(SessionTest, FullModeEcoBitwiseIdenticalToScratch) {
  db::Design design = random_design(2000, 22);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize(SolveMode::kFull).legal);

  EcoRequest request;
  request.ops = jitter_moves(session.design(), 12, 77);
  request.mode = SolveMode::kFull;
  const SessionResult served = session.eco(request);
  EXPECT_TRUE(served.legal) << served.legality_summary;
  EXPECT_EQ(served.mode, SolveMode::kFull);
  EXPECT_FALSE(served.session.incremental);

  // The session already applied the ops, so its design *is* the post-ECO
  // state; a one-shot legalization of a copy must reproduce the served
  // positions bit for bit.
  db::Design scratch = session.design();
  const legal::FlowResult reference = legal::legalize(scratch);
  ASSERT_TRUE(reference.legal);

  expect_same_positions(session.design(), scratch);
}

TEST(SessionTest, IncrementalEcoLegalAndSkipsCleanComponents) {
  db::Design design = random_design(5000, 23);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  ASSERT_TRUE(session.full_legalize().legal);

  const SessionResult served =
      session.eco(jitter_moves(session.design(), 6, 78));
  EXPECT_TRUE(served.legal) << served.legality_summary;
  EXPECT_EQ(served.kind, RequestKind::kEco);
  EXPECT_EQ(served.session.touched_cells, 6u);
  EXPECT_GT(served.session.affected_rows, 0u);
  if (served.session.full_solve_fallbacks == 0) {
    EXPECT_TRUE(served.session.incremental);
    EXPECT_GT(served.session.components_dirty, 0u);
    EXPECT_LT(served.session.components_dirty,
              served.session.components_total);
    EXPECT_GT(served.session.components_reused, 0u);
    EXPECT_EQ(served.session.components_dirty +
                  served.session.components_reused,
              served.session.components_total);
  }
}

TEST(SessionTest, IncrementalInsertAndEraseStayLegal) {
  db::Design design = random_design(3000, 24);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  ASSERT_TRUE(session.full_legalize().legal);

  // Insert a clone of a movable cell near mid-chip, erase another cell.
  const db::Chip& chip = session.design().chip();
  db::Cell payload;
  std::size_t victim = 0;
  for (std::size_t c = 0; c < session.design().num_cells(); ++c) {
    if (session.design().cells()[c].fixed) continue;
    payload = session.design().cells()[c];
    victim = c + 1;
    break;
  }
  while (session.design().cells()[victim].fixed) ++victim;
  payload.gp_x = chip.width() / 2.0;
  payload.gp_y = chip.height() / 2.0;

  std::vector<EcoOp> ops;
  ops.push_back(EcoOp::insert(payload));
  ops.push_back(EcoOp::erase(victim));
  const SessionResult served = session.eco(std::move(ops));
  EXPECT_TRUE(served.legal) << served.legality_summary;
  EXPECT_EQ(session.design().num_erased_cells(), 1u);
  EXPECT_TRUE(session.design().cells()[victim].erased);
  // The inserted cell landed inside the die (the legality check already
  // covers overlaps and alignment for it).
  const db::Cell& inserted = session.design().cells().back();
  EXPECT_FALSE(inserted.erased);
  EXPECT_GE(inserted.x, 0.0);
  EXPECT_LE(inserted.x + inserted.width, chip.width());
}

TEST(SessionTest, DeterministicReplay) {
  // Two sessions replaying the same script must produce bit-identical
  // placements and identical per-request bookkeeping (runs again under
  // MCH_THREADS=4 via the .mt4 variant).
  std::vector<SessionResult> results[2];
  db::Design designs[2] = {random_design(3000, 25), random_design(3000, 25)};
  for (int run = 0; run < 2; ++run) {
    LegalizationSession session(std::move(designs[run]));
    results[run].push_back(session.full_legalize());
    session.commit_legal_as_gp();
    results[run].push_back(session.full_legalize());
    for (std::uint64_t r = 0; r < 3; ++r)
      results[run].push_back(
          session.eco(jitter_moves(session.design(), 5, 100 + r)));
    designs[run] = session.design();
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i].legal, results[1][i].legal) << "request " << i;
    EXPECT_EQ(results[0][i].session.components_dirty,
              results[1][i].session.components_dirty)
        << "request " << i;
    EXPECT_EQ(results[0][i].session.components_reused,
              results[1][i].session.components_reused)
        << "request " << i;
    EXPECT_EQ(results[0][i].solver.iterations, results[1][i].solver.iterations)
        << "request " << i;
  }
  expect_same_positions(designs[0], designs[1]);
}

TEST(SessionTest, WarmStartHitsOnRepeatedRegion) {
  if (std::getenv("MCH_FORCE_SOLVER_FAILURE") != nullptr)
    GTEST_SKIP() << "fault injection discards the primary (warm) attempt";

  db::Design design = random_design(4000, 26);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  ASSERT_TRUE(session.full_legalize().legal);

  // Nudge one cell horizontally twice: the second request re-dirties the
  // same component (same anchor, same shape), whose workspace slot now
  // holds that component's previous solution — a warm-start hit.
  std::size_t id = 0;
  while (session.design().cells()[id].fixed) ++id;
  const double x0 = session.design().cells()[id].gp_x;
  const double y0 = session.design().cells()[id].gp_y;
  const double site = session.design().chip().site_width;

  const SessionResult first =
      session.eco({EcoOp::move(id, x0 + 3.0 * site, y0)});
  ASSERT_TRUE(first.legal) << first.legality_summary;
  const SessionResult second =
      session.eco({EcoOp::move(id, x0 + 5.0 * site, y0)});
  ASSERT_TRUE(second.legal) << second.legality_summary;
  if (second.session.incremental && second.session.components_dirty == 1) {
    EXPECT_GE(second.session.warm_start_hits, 1u);
    EXPECT_GT(second.session.warm_start_rate, 0.0);
  }
}

// Ladder attempts count only ladders that went past the primary rung, so
// an incremental request whose dirty components all converge first time
// reports no recovery activity at all.
TEST(SessionTest, ConvergedEcoReportsNoLadderAttempts) {
  // The contract is about the unforced solve; shield it from the .recovery
  // variant's fault injection.
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  db::Design design = random_design(3000, 27);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  ASSERT_TRUE(session.full_legalize().legal);

  const SessionResult served =
      session.eco(jitter_moves(session.design(), 6, 79));
  ASSERT_TRUE(served.session.incremental);
  EXPECT_GT(served.session.components_dirty, 0u);
  EXPECT_TRUE(served.solver.converged);
  EXPECT_FALSE(served.solver.recovery.attempted());
  EXPECT_EQ(served.solver.recovery.component_ladders, 0u);
  EXPECT_EQ(served.solver.recovery.ladder_attempts, 0u);
  EXPECT_EQ(served.solver.recovery.extra_iterations, 0u);
}

// The resident partition is now streamed out of build_model during
// run_full (no separate partition_model pass). A burst of incremental ECO
// requests right after that streamed build must find a usable partition:
// every request stays legal, the dirty/reused split covers all components,
// and repeated requests keep working as the partition is incrementally
// repatched on top of the streamed original.
TEST(SessionTest, EcoAfterStreamedBuildServesIncrementalRequests) {
  db::Design design = random_design(3000, 31);
  LegalizationSession session(std::move(design));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  const SessionResult resident = session.full_legalize();
  ASSERT_TRUE(resident.legal);
  ASSERT_GT(resident.session.components_total, 0u);

  for (std::uint64_t batch = 0; batch < 3; ++batch) {
    const SessionResult served =
        session.eco(jitter_moves(session.design(), 5, 400 + batch));
    ASSERT_TRUE(served.legal) << served.legality_summary;
    EXPECT_EQ(served.session.touched_cells, 5u);
    if (served.session.full_solve_fallbacks == 0) {
      EXPECT_TRUE(served.session.incremental);
      EXPECT_GT(served.session.components_dirty, 0u);
      EXPECT_EQ(served.session.components_dirty +
                    served.session.components_reused,
                served.session.components_total);
    }
  }

  // The served end state must itself legalize from scratch (the streamed
  // partition fed the solver real components, not stale index lists).
  db::Design scratch = session.design();
  const legal::FlowResult reference = legal::legalize(scratch);
  EXPECT_TRUE(reference.legal);
}

/// Every per-cell field an ECO op can change.
void expect_same_cells(const db::Design& a, const db::Design& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (std::size_t c = 0; c < a.num_cells(); ++c) {
    const db::Cell& ca = a.cells()[c];
    const db::Cell& cb = b.cells()[c];
    EXPECT_EQ(ca.erased, cb.erased) << "cell " << c;
    EXPECT_EQ(ca.gp_x, cb.gp_x) << "cell " << c;
    EXPECT_EQ(ca.gp_y, cb.gp_y) << "cell " << c;
    EXPECT_EQ(ca.x, cb.x) << "cell " << c;
    EXPECT_EQ(ca.y, cb.y) << "cell " << c;
  }
}

// A batch whose later op is invalid used to throw mid-batch, leaving the
// earlier ops applied with no delta recording them, so the next
// incremental request could skip dirty components. The whole batch is now
// validated first: a bad batch throws and changes nothing, and the next
// valid ECO agrees with a full re-solve of the same state.
TEST(SessionTest, InvalidEcoBatchIsRejectedWhole) {
  gen::GeneratorOptions gen_options;
  gen_options.seed = 28;
  gen_options.fixed_macros = 4;
  LegalizationSession session(
      gen::generate_random_design(2700, 300, 0.6, gen_options));
  ASSERT_TRUE(session.full_legalize().legal);
  session.commit_legal_as_gp();
  ASSERT_TRUE(session.full_legalize().legal);

  std::size_t victim = 0;
  while (session.design().cells()[victim].fixed) ++victim;
  const std::size_t num_cells = session.design().num_cells();
  std::size_t fixed = 0;
  while (fixed < num_cells && !session.design().cells()[fixed].fixed) ++fixed;
  ASSERT_LT(fixed, num_cells);
  const db::Cell& cell = session.design().cells()[victim];
  const EcoOp erase = EcoOp::erase(victim);
  const EcoOp move = EcoOp::move(victim, cell.gp_x + 2.0, cell.gp_y);
  db::Cell payload = cell;
  payload.gp_x = session.design().chip().width() / 2.0;

  const std::vector<std::vector<EcoOp>> bad_batches = {
      {erase, move},                                   // move after erase
      {erase, erase},                                  // double erase
      {move, EcoOp::move(fixed, 0.0, 0.0)},            // move of a fixed cell
      {move, EcoOp::erase(num_cells + 1)},             // unknown id
      {EcoOp::insert(payload), EcoOp::erase(num_cells + 1)},  // past insert
  };
  const db::Design before = session.design();
  const std::uint64_t requests = session.num_requests();
  for (std::size_t b = 0; b < bad_batches.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_THROW(session.eco(bad_batches[b]), CheckError);
    expect_same_cells(session.design(), before);
    EXPECT_EQ(session.num_requests(), requests);
  }

  // Ops on a cell inserted earlier in the batch are valid.
  const SessionResult inserted =
      session.eco({EcoOp::insert(payload), EcoOp::erase(num_cells)});
  EXPECT_TRUE(inserted.legal) << inserted.legality_summary;

  std::size_t other = victim + 1;
  while (session.design().cells()[other].fixed) ++other;
  const db::Cell& neighbour = session.design().cells()[other];
  const SessionResult served = session.eco(
      {erase, EcoOp::move(other, neighbour.gp_x + 3.0, neighbour.gp_y)});
  ASSERT_TRUE(served.legal) << served.legality_summary;
  LegalizationSession reference(session.design());
  const SessionResult full = reference.full_legalize(SolveMode::kFull);
  ASSERT_TRUE(full.legal) << full.legality_summary;
  EXPECT_NEAR(served.displacement.mean_sites, full.displacement.mean_sites,
              1e-3 * full.displacement.mean_sites);
}

TEST(SessionTest, EcoBeforeFirstSolveFallsBackToFull) {
  db::Design design = random_design(1500, 27);
  LegalizationSession session(std::move(design));
  const SessionResult served =
      session.eco(jitter_moves(session.design(), 3, 79));
  EXPECT_TRUE(served.legal) << served.legality_summary;
  // No resident solve existed, so the request ran the full pipeline.
  EXPECT_FALSE(served.session.incremental);
  EXPECT_GT(served.session.components_total, 0u);
}

/// One random valid ECO batch against the current design: 1–8 ops, about
/// 60% moves, 20% inserts (a clone of a live cell dropped anywhere on the
/// die) and 20% erases. No op touches a fixed cell or one erased earlier,
/// in this batch included. `touched` receives the distinct cell ids the
/// batch touches, inserted ids counted.
std::vector<EcoOp> fuzz_batch(const db::Design& design, Rng& rng,
                              std::set<std::size_t>& touched) {
  const db::Chip& chip = design.chip();
  std::set<std::size_t> gone;
  const auto pick_live = [&] {
    for (;;) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(design.num_cells()) - 1));
      const db::Cell& cell = design.cells()[id];
      if (!cell.fixed && !cell.erased && gone.count(id) == 0) return id;
    }
  };
  std::vector<EcoOp> ops;
  std::size_t next_id = design.num_cells();
  const auto count = static_cast<std::size_t>(rng.uniform_int(1, 8));
  while (ops.size() < count) {
    const double kind = rng.uniform(0.0, 1.0);
    const std::size_t id = pick_live();
    const db::Cell& cell = design.cells()[id];
    if (kind < 0.6) {
      ops.push_back(EcoOp::move(
          id, cell.gp_x + rng.normal(0.0, 6.0 * chip.site_width),
          cell.gp_y + rng.normal(0.0, 1.0 * chip.row_height)));
      touched.insert(id);
    } else if (kind < 0.8) {
      db::Cell payload = cell;
      payload.gp_x = rng.uniform(0.0, chip.width() - cell.width);
      payload.gp_y = rng.uniform(
          0.0, chip.height() -
                   static_cast<double>(cell.height_rows) * chip.row_height);
      ops.push_back(EcoOp::insert(payload));
      touched.insert(next_id++);
    } else {
      ops.push_back(EcoOp::erase(id));
      gone.insert(id);
      touched.insert(id);
    }
  }
  return ops;
}

/// The allocation and the legality check against their oracles
/// on a served state: the state itself is audited, then both allocators
/// run on its relaxed optimum and on its row-assigned GP.
void expect_state_matches_oracles(const db::Design& state) {
  oracle::expect_same_audits(state);
  db::Design relaxed = state;
  const legal::RowAssignment rows = legal::assign_rows(relaxed);
  legal::mmsim_legalize_continuous(relaxed, rows);
  {
    SCOPED_TRACE("relaxed optimum");
    oracle::check_allocation(relaxed);
  }
  db::Design placed = state;
  for (db::Cell& cell : placed.cells())
    if (!cell.fixed) cell.x = cell.gp_x;
  legal::assign_rows(placed);
  {
    SCOPED_TRACE("row-assigned GP");
    oracle::check_allocation(placed);
  }
}

/// The resident model and partition against a from-scratch build of the
/// session's current state: the ECO path patches them in place, and the
/// patch must reproduce build_model and partition_model bit for bit.
void expect_resident_state_matches_scratch(
    const LegalizationSession& session) {
  const legal::LegalizationModel scratch =
      legal::build_model(session.design(), session.base_rows());
  oracle::expect_models_identical(session.model(), scratch);
  oracle::expect_partitions_identical(session.partition(),
                                      legal::partition_model(scratch));
}

/// A seeded fuzz stream of `requests` ECO batches on `initial`. After every
/// request:
/// the resident model and partition equal a from-scratch build, the
/// request's bookkeeping matches the batch, the allocation and the check
/// equal their oracles on the served state, and — when the design admits a
/// legal placement (`legal`) — the result is legal by an independent check
/// and the incremental displacement agrees with a kFull re-solve of the
/// same state. At the end, a replay of the stream in a second session is
/// bitwise equal, and a kFull request on the final state equals a one-shot
/// legalize.
void run_eco_fuzz(const db::Design& initial, std::uint64_t seed,
                  bool legal, int requests) {
  LegalizationSession session(initial);
  ASSERT_EQ(session.full_legalize().legal, legal);
  session.commit_legal_as_gp();
  ASSERT_EQ(session.full_legalize().legal, legal);
  expect_resident_state_matches_scratch(session);

  Rng rng(1000 + seed);
  std::vector<std::vector<EcoOp>> script;
  std::vector<SessionResult> served;
  std::size_t erased = 0;
  std::size_t incremental = 0;
  for (int request = 0; request < requests; ++request) {
    SCOPED_TRACE("request " + std::to_string(request));
    std::set<std::size_t> touched;
    script.push_back(fuzz_batch(session.design(), rng, touched));
    for (const EcoOp& op : script.back())
      if (op.kind == EcoOp::Kind::kErase) ++erased;

    served.push_back(session.eco(script.back()));
    const SessionResult& result = served.back();
    expect_resident_state_matches_scratch(session);
    if (legal) {
      ASSERT_TRUE(result.legal) << result.legality_summary;
      const db::LegalityReport report = db::check_legality(session.design());
      ASSERT_TRUE(report.legal()) << report.summary();
    }
    expect_state_matches_oracles(session.design());
    EXPECT_EQ(result.kind, RequestKind::kEco);
    EXPECT_EQ(result.session.touched_cells, touched.size());
    EXPECT_GT(result.session.affected_rows, 0u);
    EXPECT_EQ(session.design().num_erased_cells(), erased);
    if (result.session.incremental) {
      ++incremental;
      EXPECT_GT(result.session.components_dirty, 0u);
      EXPECT_EQ(result.session.components_dirty +
                    result.session.components_reused,
                result.session.components_total);
    }

    if (legal) {
      LegalizationSession reference(session.design());
      const SessionResult full = reference.full_legalize(SolveMode::kFull);
      ASSERT_TRUE(full.legal) << full.legality_summary;
      EXPECT_NEAR(result.displacement.mean_sites,
                  full.displacement.mean_sites,
                  1e-3 * full.displacement.mean_sites);
    }
  }
  if (legal) {
    EXPECT_GT(incremental, 0u) << "no request took the incremental path";
  }

  LegalizationSession replay(initial);
  replay.full_legalize();
  replay.commit_legal_as_gp();
  replay.full_legalize();
  for (std::size_t r = 0; r < script.size(); ++r) {
    const SessionResult again = replay.eco(script[r]);
    EXPECT_EQ(again.session.components_dirty,
              served[r].session.components_dirty)
        << "request " << r;
    EXPECT_EQ(again.solver.iterations, served[r].solver.iterations)
        << "request " << r;
  }
  expect_same_positions(replay.design(), session.design());

  db::Design scratch = session.design();
  EXPECT_EQ(session.full_legalize(SolveMode::kFull).legal, legal);
  EXPECT_EQ(legal::legalize(scratch).legal, legal);
  expect_same_positions(session.design(), scratch);
}

class EcoFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcoFuzzTest, StreamMatchesFullRecomputation) {
  const std::uint64_t seed = GetParam();
  gen::GeneratorOptions gen_options;
  gen_options.seed = seed;
  gen_options.fixed_macros = static_cast<std::size_t>(seed % 3);
  const double density = 0.5 + 0.1 * static_cast<double>(seed % 3);
  run_eco_fuzz(gen::generate_random_design(1080, 120, density, gen_options),
               seed, /*legal=*/true, /*requests=*/5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcoFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

class EcoFuzzDegenerateTest
    : public ::testing::TestWithParam<gen::DegenerateMode> {};

// The same stream on the generator's pathological designs. Only the stacked
// tall-cell column admits a legal placement; on the other two the resident
// state, the oracles and the replay are checked. Three requests: once an ECO
// lands in the stacked column, each solve of it exhausts its recovery ladder
// (~0.2 s).
TEST_P(EcoFuzzDegenerateTest, StreamMatchesFullRecomputation) {
  const gen::DegenerateMode mode = GetParam();
  run_eco_fuzz(gen::generate_degenerate_design(mode, 24, 3), 7,
               mode == gen::DegenerateMode::kNearSingularCoupling,
               /*requests=*/3);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EcoFuzzDegenerateTest,
    ::testing::Values(gen::DegenerateMode::kNearSingularCoupling,
                      gen::DegenerateMode::kInfeasibleRowCapacity,
                      gen::DegenerateMode::kObstacleSaturatedRows),
    [](const ::testing::TestParamInfo<gen::DegenerateMode>& info) {
      std::string name = gen::to_string(info.param);
      for (char& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

}  // namespace
}  // namespace mch::service
