// Resident-session ECO throughput (ROADMAP "legalization server").
//
// Loads one design into a service::LegalizationSession, then serves a
// randomized ECO trace (mostly small move batches, a few inserts/erases)
// and reports request latency percentiles and requests/sec. Every few
// requests the same design state is also legalized from scratch with the
// one-shot legal::legalize so the incremental path's speedup is measured
// against the exact work it avoids.
//
//   ./service_throughput [num-requests] [ops-per-request]
//   ./service_throughput --multi [num-designs] [num-clients]
//
// The default design is 50k cells (45k single + 5k double, density 0.7) at
// MCH_BENCH_SCALE=0.05-equivalent sizing; the counts scale linearly with
// MCH_BENCH_SCALE like the table benches.
//
// The --multi mode drives the two-level scheduler with a queue of many
// heterogeneous designs (default 120, sized 400–2400 cells): first a
// single client submits every design serially, then num-clients client
// threads drain the same queue concurrently, each request served as a full
// solve through its own LegalizationSession on the shared worker pool. Every
// request's positions must hash bitwise-identical across the two phases
// (and, sampled, to the one-shot legal::legalize), and the wall-clock
// ratio must show >= 0.7 parallel efficiency at num-clients concurrent
// clients. That bar means nothing with fewer than two hardware threads or
// more clients than cores, so there the mode runs and checks everything
// else, then prints "SKIP: <reason>" and exits 77 instead of judging
// efficiency. Results land in results/service_throughput_multi.json.
//
// With tracing/metrics enabled the bench also writes observability
// artifacts next to its JSON snapshot: results/service_throughput.trace.json
// (Chrome trace events for the whole request stream) and
// results/service_throughput.metrics.json (the metrics-registry snapshot
// with per-request latency histograms). MCH_TRACE/MCH_METRICS paths
// override the defaults; the multi-client mode uses *_multi artifact names.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/generator.h"
#include "io/table.h"
#include "legal/flow.h"
#include "obs/obs.h"
#include "service/session.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// FNV-1a over the raw bit patterns of the placed positions: equal hashes
/// across phases is the bench's bitwise-determinism witness.
std::uint64_t position_hash(const mch::db::Design& design) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    h ^= bits;
    h *= 1099511628211ull;
  };
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    if (design.cells()[c].erased) continue;
    mix(design.cells()[c].x);
    mix(design.cells()[c].y);
  }
  return h;
}

/// The heterogeneous request queue: design r's size cycles through a
/// small/medium mix (scaled by MCH_BENCH_SCALE like everything else) and
/// every design gets its own seed, so no two requests are alike.
std::size_t multi_design_cells(std::size_t r) {
  static const std::size_t kSizes[] = {400, 1500, 700, 2400,
                                       550, 1100, 850};
  const double sizing = mch::bench::bench_scale() / 0.05;
  const std::size_t cells = static_cast<std::size_t>(
      static_cast<double>(kSizes[r % (sizeof kSizes / sizeof kSizes[0])]) *
      sizing);
  return std::max<std::size_t>(cells, 50);
}

mch::db::Design make_multi_design(std::size_t r) {
  mch::gen::GeneratorOptions options;
  options.seed = mch::bench::bench_seed() + 7919 * (r + 1);
  const std::size_t cells = multi_design_cells(r);
  return mch::gen::generate_random_design(cells - cells / 10, cells / 10,
                                          0.7, options);
}

struct ServedRequest {
  std::uint64_t hash = 0;
  double seconds = 0.0;
  bool legal = false;
};

/// One queue entry end to end: generate the design, serve it as a full
/// solve through a fresh session, and hash the positions.
ServedRequest serve_multi_design(std::size_t r) {
  mch::service::LegalizationSession session(make_multi_design(r));
  mch::Timer timer;
  const mch::service::SessionResult result =
      session.full_legalize(mch::service::SolveMode::kFull);
  ServedRequest served;
  served.seconds = timer.seconds();
  served.legal = result.legal;
  served.hash = position_hash(session.design());
  return served;
}

int run_multi_client(std::size_t num_designs, std::size_t num_clients) {
  using namespace mch;
  const char* json_dir = std::getenv("MCH_BENCH_JSON_DIR");
  const std::string artifact_dir = json_dir != nullptr ? json_dir : "results";
  if (obs::trace_path().empty())
    obs::set_trace_path(artifact_dir + "/service_throughput_multi.trace.json");
  if (obs::metrics_path().empty())
    obs::set_metrics_path(artifact_dir +
                          "/service_throughput_multi.metrics.json");

  std::size_t total_cells = 0;
  for (std::size_t r = 0; r < num_designs; ++r)
    total_cells += multi_design_cells(r);
  std::printf(
      "multi-client queue: %zu heterogeneous designs (%zu cells total), "
      "%zu clients\n",
      num_designs, total_cells, num_clients);

  // Phase 1 — single-client serial submission: the baseline every
  // efficiency claim is measured against, and the reference hash per
  // request. Sampled requests are also checked against the one-shot
  // legal::legalize (the session's full-solve bitwise contract).
  std::vector<ServedRequest> serial(num_designs);
  std::size_t illegal = 0;
  std::size_t hash_mismatches = 0;
  const std::size_t scratch_every = std::max<std::size_t>(1, num_designs / 8);
  Timer serial_timer;
  for (std::size_t r = 0; r < num_designs; ++r) {
    serial[r] = serve_multi_design(r);
    if (!serial[r].legal) ++illegal;
  }
  const double serial_seconds = serial_timer.seconds();
  for (std::size_t r = 0; r < num_designs; r += scratch_every) {
    db::Design copy = make_multi_design(r);
    const legal::FlowResult scratch = legal::legalize(copy);
    if (!scratch.legal) ++illegal;
    if (position_hash(copy) != serial[r].hash) {
      std::printf("FAIL: request %zu differs from one-shot legalize\n", r);
      ++hash_mismatches;
    }
  }

  // Phase 2 — the same queue drained by num_clients concurrent submitters.
  // Each client claims the next design off a shared cursor; all component
  // solves from all in-flight requests interleave on the shared pool.
  const std::uint64_t jobs_before = obs::counter("sched.jobs").value();
  const std::uint64_t steals_before = obs::counter("sched.steals").value();
  std::vector<ServedRequest> multi(num_designs);
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> ready{0};
  Timer multi_timer;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t client = 0; client < num_clients; ++client) {
    clients.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(num_clients))
        std::this_thread::yield();
      for (;;) {
        const std::size_t r = cursor.fetch_add(1);
        if (r >= num_designs) return;
        multi[r] = serve_multi_design(r);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double multi_seconds = multi_timer.seconds();

  std::vector<double> latencies;
  latencies.reserve(num_designs);
  for (std::size_t r = 0; r < num_designs; ++r) {
    latencies.push_back(multi[r].seconds);
    if (!multi[r].legal) ++illegal;
    if (multi[r].hash != serial[r].hash) {
      std::printf("FAIL: request %zu not bitwise stable under %zu clients\n",
                  r, num_clients);
      ++hash_mismatches;
    }
  }

  // Parallel efficiency: speedup over serial submission per client. The
  // gate below judges it only where every client can have a core.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double speedup =
      multi_seconds > 0.0 ? serial_seconds / multi_seconds : 0.0;
  const double efficiency = speedup / static_cast<double>(num_clients);

  const std::uint64_t sched_jobs = obs::counter("sched.jobs").value();
  const std::uint64_t steals =
      obs::counter("sched.steals").value() - steals_before;

  io::Table table({"designs", "clients", "serial s", "multi s", "speedup",
                   "efficiency", "p50 ms", "p99 ms"});
  table.row()
      .cell(num_designs)
      .cell(num_clients)
      .cell(serial_seconds)
      .cell(multi_seconds)
      .cell(speedup)
      .cell(efficiency)
      .cell(percentile(latencies, 0.50) * 1e3)
      .cell(percentile(latencies, 0.99) * 1e3);
  std::printf("\n%s\n", table.to_text().c_str());
  std::printf(
      "scheduler: %llu jobs since start (%llu this phase), %llu steals, "
      "queue depth p99 %.1f\n",
      static_cast<unsigned long long>(sched_jobs),
      static_cast<unsigned long long>(sched_jobs - jobs_before),
      static_cast<unsigned long long>(steals),
      obs::histogram("sched.queue_depth").percentile(0.99));
  std::printf("illegal results: %zu, hash mismatches: %zu\n", illegal,
              hash_mismatches);
  mch::bench::print_peak_rss();

  bench::JsonSnapshot json("service_throughput_multi");
  json.add("serial/total", total_cells, serial_seconds);
  json.add("multi/total", total_cells, multi_seconds);
  json.add("multi/p50", total_cells, percentile(latencies, 0.50));
  json.add("multi/p99", total_cells, percentile(latencies, 0.99));
  // Dimensionless records, kept in the same schema: "cells" carries the
  // client count and "seconds" the ratio.
  json.add("multi/speedup", num_clients, speedup);
  json.add("multi/efficiency", num_clients, efficiency);
  json.write();

  obs::set_metrics_attribute("bench", "service_throughput_multi");
  obs::set_metrics_attribute("designs", std::to_string(num_designs));
  obs::set_metrics_attribute("clients", std::to_string(num_clients));
  obs::flush_artifacts();

  if (illegal > 0 || hash_mismatches > 0) return 1;
  // The scheduler's acceptance bar: >= 0.7 parallel efficiency against
  // single-client serial submission. With one hardware thread, or more
  // clients than cores, the clients time-share cores and the bar would
  // pass or fail on the host rather than the scheduler: report a skip
  // (exit 77, the ctest/automake skip code) instead of a verdict.
  if (hw < 2 || num_clients > hw) {
    std::printf(
        "SKIP: efficiency gate not judged: %u hardware thread(s) for %zu "
        "clients (needs at least 2 threads and no more clients than "
        "threads)\n",
        hw, num_clients);
    return 77;
  }
  if (efficiency < 0.7) {
    std::printf("FAIL: efficiency %.2f below the 0.7 bar\n", efficiency);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mch;
  bench::bench_threads(argc, argv);
  bench::print_bench_banner("service_throughput");

  if (argc > 1 && std::strcmp(argv[1], "--multi") == 0) {
    const std::size_t num_designs =
        argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 120;
    const std::size_t num_clients =
        argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3]))
                 : std::max(2u, std::thread::hardware_concurrency());
    return run_multi_client(std::max<std::size_t>(num_designs, 1),
                            std::max<std::size_t>(num_clients, 1));
  }

  // This bench always emits the observability artifacts (the request stream
  // is exactly what the trace/histogram layer exists to explain); explicit
  // MCH_TRACE/MCH_METRICS paths take precedence over the defaults.
  const char* json_dir = std::getenv("MCH_BENCH_JSON_DIR");
  const std::string artifact_dir = json_dir != nullptr ? json_dir : "results";
  if (obs::trace_path().empty())
    obs::set_trace_path(artifact_dir + "/service_throughput.trace.json");
  if (obs::metrics_path().empty())
    obs::set_metrics_path(artifact_dir + "/service_throughput.metrics.json");

  const std::size_t num_requests =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 128;
  const std::size_t ops_per_request =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;

  // 50k cells at the default scale (0.05), growing linearly like the table
  // benches.
  const double sizing = bench::bench_scale() / 0.05;
  const auto num_single = static_cast<std::size_t>(45000 * sizing);
  const auto num_double = static_cast<std::size_t>(5000 * sizing);
  gen::GeneratorOptions gen_options;
  gen_options.seed = bench::bench_seed();
  db::Design design =
      gen::generate_random_design(num_single, num_double, 0.7, gen_options);
  std::printf("design: %zu cells (%zu single, %zu double), density 0.70\n",
              design.num_cells(), num_single, num_double);

  service::SessionOptions session_options;
  service::LegalizationSession session(std::move(design), session_options);

  // Establish the resident state: legalize, adopt the legal placement as
  // the GP (the ECO baseline), and solve once more so the session's model/
  // partition/solution describe the committed state.
  service::SessionResult full = session.full_legalize();
  std::printf("initial full legalize: %s, %.3fs, %zu components\n",
              full.legal ? "legal" : "ILLEGAL", full.seconds,
              full.session.components_total);
  session.commit_legal_as_gp();
  full = session.full_legalize();
  std::printf("resident solve on committed GP: %s, %.3fs\n",
              full.legal ? "legal" : "ILLEGAL", full.seconds);

  const db::Chip& chip = session.design().chip();
  Rng rng(bench::bench_seed() + 1234);
  // A cell erased earlier in the batch is not picked again: the session
  // rejects a batch that touches an erased cell.
  std::vector<std::size_t> erased_in_batch;
  const auto pick_live_movable = [&]() -> std::size_t {
    for (;;) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(session.design().num_cells()) - 1));
      const db::Cell& cell = session.design().cells()[id];
      if (!cell.fixed && !cell.erased &&
          std::find(erased_in_batch.begin(), erased_in_batch.end(), id) ==
              erased_in_batch.end())
        return id;
    }
  };

  std::vector<double> latencies;  // seconds per ECO request
  latencies.reserve(num_requests);
  std::vector<double> scratch_seconds;
  double eco_at_scratch_samples = 0.0;  // ECO latency on the sampled requests
  std::size_t illegal = 0;
  std::size_t fallbacks = 0;
  std::size_t warm_hits = 0;
  double dirty_sum = 0.0;
  double reused_sum = 0.0;
  double touched_sum = 0.0;

  const std::size_t scratch_every = std::max<std::size_t>(1, num_requests / 8);

  for (std::size_t req = 0; req < num_requests; ++req) {
    service::EcoRequest request;
    erased_in_batch.clear();
    for (std::size_t k = 0; k < ops_per_request; ++k) {
      const double roll = rng.uniform();
      if (roll < 0.90) {
        const std::size_t id = pick_live_movable();
        const db::Cell& cell = session.design().cells()[id];
        request.ops.push_back(service::EcoOp::move(
            id, cell.gp_x + rng.normal(0.0, 6.0 * chip.site_width),
            cell.gp_y + rng.normal(0.0, 0.8 * chip.row_height)));
      } else if (roll < 0.95) {
        db::Cell payload = session.design().cells()[pick_live_movable()];
        payload.gp_x = rng.uniform(0.0, chip.width() - payload.width);
        payload.gp_y = rng.uniform(0.0, chip.height());
        request.ops.push_back(service::EcoOp::insert(payload));
      } else {
        erased_in_batch.push_back(pick_live_movable());
        request.ops.push_back(service::EcoOp::erase(erased_in_batch.back()));
      }
    }

    const service::SessionResult result = session.eco(request);
    latencies.push_back(result.seconds);
    if (!result.legal) ++illegal;
    fallbacks += result.session.full_solve_fallbacks;
    warm_hits += result.session.warm_start_hits;
    dirty_sum += static_cast<double>(result.session.components_dirty);
    reused_sum += static_cast<double>(result.session.components_reused);
    touched_sum += static_cast<double>(result.session.touched_cells);

    // Sampled from-scratch comparison: legalize a copy of the exact same
    // design state with the one-shot flow.
    if (req % scratch_every == 0) {
      db::Design copy = session.design();
      Timer timer;
      const legal::FlowResult scratch =
          legal::legalize(copy, session_options.flow);
      scratch_seconds.push_back(timer.seconds());
      eco_at_scratch_samples += result.seconds;
      if (!scratch.legal) ++illegal;
    }
  }

  const double n = static_cast<double>(num_requests);
  double total = 0.0;
  for (const double s : latencies) total += s;

  io::Table table({"requests", "ops/req", "p50 ms", "p99 ms", "mean ms",
                   "req/s", "dirty", "reused", "warm rate", "fallbacks"});
  table.row()
      .cell(num_requests)
      .cell(ops_per_request)
      .cell(percentile(latencies, 0.50) * 1e3)
      .cell(percentile(latencies, 0.99) * 1e3)
      .cell(total / n * 1e3)
      .cell(n / total)
      .cell(dirty_sum / n)
      .cell(reused_sum / n)
      .cell(dirty_sum > 0.0 ? static_cast<double>(warm_hits) / dirty_sum : 0.0)
      .cell(fallbacks);
  std::printf("\n%s\n", table.to_text().c_str());
  std::printf("mean touched cells per request: %.1f\n", touched_sum / n);

  double scratch_total = 0.0;
  for (const double s : scratch_seconds) scratch_total += s;
  const double scratch_mean =
      scratch_seconds.empty()
          ? 0.0
          : scratch_total / static_cast<double>(scratch_seconds.size());
  const double eco_mean_at_samples =
      scratch_seconds.empty()
          ? 0.0
          : eco_at_scratch_samples /
                static_cast<double>(scratch_seconds.size());
  const double speedup =
      eco_mean_at_samples > 0.0 ? scratch_mean / eco_mean_at_samples : 0.0;
  std::printf(
      "from-scratch legalize (sampled %zux): mean %.3fs; incremental ECO on "
      "the same states: mean %.4fs — speedup %.1fx\n",
      scratch_seconds.size(), scratch_mean, eco_mean_at_samples, speedup);
  std::printf("illegal results: %zu\n", illegal);
  mch::bench::print_peak_rss();

  const std::size_t cells = session.design().num_cells();
  bench::JsonSnapshot json("service_throughput");
  json.add("full_legalize", cells, full.seconds);
  json.add("eco/p50", cells, percentile(latencies, 0.50));
  json.add("eco/p99", cells, percentile(latencies, 0.99));
  json.add("eco/mean", cells, total / n);
  json.add("scratch/mean", cells, scratch_mean);
  json.write();

  obs::set_metrics_attribute("bench", "service_throughput");
  obs::set_metrics_attribute("requests", std::to_string(num_requests));
  obs::set_metrics_attribute("ops_per_request",
                             std::to_string(ops_per_request));
  obs::flush_artifacts();

  if (illegal > 0) return 1;
  // The acceptance bar of the resident-session work: incremental ECO must
  // be at least 5x faster than re-legalizing from scratch.
  if (speedup < 5.0) {
    std::printf("FAIL: speedup %.1fx below the 5x bar\n", speedup);
    return 1;
  }
  return 0;
}
