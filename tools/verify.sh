#!/usr/bin/env bash
# Repo verification driver: tier-1 build + ctest, the env-variant ctest
# jobs (.recovery/.session/.simd-off/.trace), the observability
# disabled-overhead smoke (BM_MmsimIterations/32768 vs the committed
# snapshot), the multi-client scheduler bench (bitwise stability + parallel
# efficiency of concurrent request submission), an AddressSanitizer job
# over the solver/legalizer suites (the workspace arena hands slot
# references to parallel workers — ASan is what would catch a stale one), a
# UBSan job over the SIMD kernel suites, and a ThreadSanitizer job
# over the work-stealing scheduler (concurrent submitters, stolen tickets,
# the sleep/wake Dekker protocol — TSan is what would catch a misordered
# wake or a job freed under a late steal).
#
#   tools/verify.sh            # full: Release + ctest + ASan + UBSan + TSan
#   tools/verify.sh --fast     # skip the sanitizer jobs
#   tools/verify.sh --bigmem   # additionally run the 1M-cell memory smoke
#
# Build trees: ./build (default config), ./build-asan (MCH_ENABLE_ASAN),
# ./build-ubsan (MCH_ENABLE_UBSAN) and ./build-tsan (MCH_ENABLE_TSAN), all
# RelWithDebInfo sanitizer trees. All are incremental across runs.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
BIGMEM=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bigmem) BIGMEM=1 ;;
    *) echo "usage: tools/verify.sh [--fast] [--bigmem]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build (Release default) =="
cmake -B build -S . >/dev/null
cmake --build build -j4

echo "== tier-1: ctest =="
(cd build && ctest -j2 --output-on-failure)

echo "== recovery: fault-injected legal/lcp suites =="
# The .recovery ctest variant runs with MCH_FORCE_SOLVER_FAILURE=1, so
# every legalization solve exercises the escalation ladder and must still
# meet its contracts; the plain legality/recovery regression suites ride
# along for the checker fixes.
(cd build && ctest -j2 --output-on-failure \
  -R '\.recovery$|RecoveryLadderTest|DegenerateDesignTest|LegalityTest')

echo "== session: resident-service suites =="
# The .session ctest variant runs the eval/integration suites with
# MCH_SESSION=1, serving every MMSIM legalization through a resident
# service::LegalizationSession; the SessionTest suite covers the
# incremental ECO path and the full-solve bitwise contract directly.
(cd build && ctest -j2 --output-on-failure \
  -R '\.session$|SessionTest')

echo "== simd-off: scalar-reference kernel suites =="
# The .simd-off ctest variant runs the kernel/solver suites with MCH_SIMD=0
# so the scalar fallback — the bitwise reference the AVX kernels are
# contracted against — stays exercised on hardware that would otherwise
# always dispatch the vector paths; the Simd* suites run the cross-level
# bitwise-identity assertions directly.
(cd build && ctest -j2 --output-on-failure \
  -R '\.simd-off$|SimdDispatchTest|SimdCsrTest|SimdBlockDiagTest|MmsimSimdTest')

echo "== trace: observability-enabled suites =="
# The .trace ctest variant re-runs the eval/service/integration suites with
# MCH_TRACE=1 and MCH_METRICS=1 — spans recording into every thread's ring
# and the metrics registry armed, no artifacts written. Tracing is
# contracted to be a pure observer (tests/obs/identity_test.cpp holds the
# bitwise line), so every assertion in those suites must still pass; the
# obs unit suites ride along.
(cd build && ctest -j2 --output-on-failure \
  -R '\.trace$|TraceTest|MetricsTest|ObsIdentityTest')

echo "== obs: disabled-overhead smoke =="
# src/obs/ is compiled into every build and gated by a relaxed flag load,
# which is only acceptable if the disabled cost stays invisible. Re-run the
# instrumented BM_MmsimIterations/32768 (tracing/metrics off) and fail if
# the best of three runs regresses more than 1% + noise floor against the
# committed snapshot in results/micro_solver.json. MCH_BENCH_JSON_DIR is
# pointed at a scratch dir so the smoke never overwrites the snapshot it
# compares against.
cmake --build build -j4 --target micro_solver
OVH_DIR="$(mktemp -d)"
trap 'rm -rf "$OVH_DIR"' EXIT
for rep in 1 2 3; do
  MCH_BENCH_JSON_DIR="$OVH_DIR" build/bench/micro_solver \
    --benchmark_filter='^BM_MmsimIterations/32768$' \
    --benchmark_out="$OVH_DIR/rep$rep.json" \
    --benchmark_out_format=json >/dev/null
done
python3 - "$OVH_DIR" <<'EOF'
import json, sys
scratch = sys.argv[1]
best_ns = min(
    b["real_time"]
    for rep in (1, 2, 3)
    for b in json.load(open(f"{scratch}/rep{rep}.json"))["benchmarks"]
    if b["name"] == "BM_MmsimIterations/32768"
)
snapshot = json.load(open("results/micro_solver.json"))
baseline_s = next(r["seconds"] for r in snapshot["records"]
                  if r["name"] == "BM_MmsimIterations/32768")
# 1% is the whole instrumentation budget for the disabled path — a relaxed
# flag load per span site. Taking the best of three runs keeps scheduler
# noise out of the measurement; an un-gated span or a registry lookup on
# the sweep path would blow the limit by an order of magnitude.
limit_s = baseline_s * 1.01
best_s = best_ns / 1e9
verdict = "OK" if best_s <= limit_s else "FAIL"
print(f"obs overhead smoke: best {best_s:.6f}s vs baseline "
      f"{baseline_s:.6f}s (limit {limit_s:.6f}s) -> {verdict}")
sys.exit(0 if best_s <= limit_s else 1)
EOF

echo "== sched: multi-client throughput + bitwise stability =="
# A reduced run of the --multi bench mode: a queue of heterogeneous designs
# served as full solves on the default tiered path, serially, then drained
# by concurrent clients sharing the worker pool. The bench itself exits non-zero if any request's positions diverge
# bitwise from the single-client phase (or, sampled, from the one-shot
# legal::legalize), or if parallel efficiency (speedup per client) drops
# below 0.7. On a host with fewer than 2 hardware threads or fewer
# threads than clients the efficiency bar cannot be judged: the bench exits
# 77 after its bitwise checks and this step reports SKIPPED, not OK.
# MCH_BENCH_JSON_DIR points at the scratch dir so the committed
# results/service_throughput_multi.json snapshot (written by a full
# 120-design run) is never overwritten.
cmake --build build -j4 --target service_throughput
SKIPPED=""
multi_status=0
MCH_THREADS=4 MCH_BENCH_JSON_DIR="$OVH_DIR" \
  build/bench/service_throughput --multi 24 3 || multi_status=$?
if [[ "$multi_status" == 77 ]]; then
  echo "sched: efficiency gate SKIPPED (see the SKIP line above)"
  SKIPPED="multi-client efficiency gate"
elif [[ "$multi_status" != 0 ]]; then
  exit "$multi_status"
fi

if [[ "$FAST" == 0 ]]; then
  echo "== tsan: build scheduler/service/legalizer suites =="
  # The scheduler's whole job is cross-thread: per-worker deques, stolen
  # tickets, the combined remaining-counter retirement, the epoch/sleepers
  # Dekker handshake. TSan over the scheduler suite (which includes the
  # concurrent-submission regression for the old pool's abort) and the
  # concurrent-clients determinism test is the check that those protocols
  # are data-race-free, not merely lucky. The legalizer suite joins them:
  # its one component driver scatters every component's solution into the
  # shared solution vector from pool workers on every legalize.
  cmake -B build-tsan -S . -DMCH_ENABLE_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  TSAN_TARGETS=(runtime_scheduler_test service_scheduler_determinism_test
                legal_mmsim_legalizer_test)
  for t in "${TSAN_TARGETS[@]}"; do
    cmake --build build-tsan -j4 --target "$t"
  done

  echo "== tsan: run (4-thread pool, plus steal-first) =="
  sched_bin="$(find build-tsan/tests -name runtime_scheduler_test -type f | head -1)"
  MCH_THREADS=4 "$sched_bin" --gtest_brief=1
  MCH_THREADS=4 MCH_SCHED_STEAL_FIRST=1 "$sched_bin" --gtest_brief=1
  det_bin="$(find build-tsan/tests -name service_scheduler_determinism_test -type f | head -1)"
  # The concurrent-clients case only — the full determinism matrix already
  # runs in the tier-1 and MT4 ctest jobs, and TSan's value here is the
  # overlap of distinct sessions on shared workers, not the thread sweep.
  MCH_THREADS=4 "$det_bin" --gtest_brief=1 \
    --gtest_filter='*ConcurrentClientsBitwiseStable*'
  # The one-shot purity, tiered and design-family cases: every component
  # solve of a legalize, fanned out over the pool (plain and steal-first).
  legal_bin="$(find build-tsan/tests -name legal_mmsim_legalizer_test -type f | head -1)"
  legal_filter='*OneShotHasNoCallHistory*:*Tiered*:*Family*'
  MCH_THREADS=4 "$legal_bin" --gtest_brief=1 --gtest_filter="$legal_filter"
  MCH_THREADS=4 MCH_SCHED_STEAL_FIRST=1 "$legal_bin" --gtest_brief=1 \
    --gtest_filter="$legal_filter"

  echo "== asan: build solver/legalizer suites =="
  cmake -B build-asan -S . -DMCH_ENABLE_ASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  ASAN_TARGETS=(
    lcp_mmsim_test lcp_mmsim_fused_test lcp_solver_test
    lcp_polish_test legal_mmsim_legalizer_test legal_partition_test
    linalg_csr_test
  )
  for t in "${ASAN_TARGETS[@]}"; do
    cmake --build build-asan -j4 --target "$t"
  done

  echo "== asan: run (serial and 4-thread pool) =="
  for t in "${ASAN_TARGETS[@]}"; do
    bin="$(find build-asan/tests -name "$t" -type f | head -1)"
    "$bin" --gtest_brief=1
    MCH_THREADS=4 "$bin" --gtest_brief=1
  done

  echo "== ubsan: build SIMD kernel suites =="
  # The vector kernels are the one place the codebase hand-rolls pointer
  # arithmetic over SoA gather tables and reinterprets masks — UBSan over
  # the kernel suites (at every dispatch level) is what would catch a
  # misaligned load or out-of-lane index.
  cmake -B build-ubsan -S . -DMCH_ENABLE_UBSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  UBSAN_TARGETS=(
    linalg_simd_test linalg_csr_test lcp_mmsim_simd_test lcp_mmsim_fused_test
  )
  for t in "${UBSAN_TARGETS[@]}"; do
    cmake --build build-ubsan -j4 --target "$t"
  done

  echo "== ubsan: run (native SIMD, forced-scalar) =="
  for t in "${UBSAN_TARGETS[@]}"; do
    bin="$(find build-ubsan/tests -name "$t" -type f | head -1)"
    "$bin" --gtest_brief=1
    MCH_SIMD=0 "$bin" --gtest_brief=1
  done
fi

if [[ "$BIGMEM" == 1 ]]; then
  echo "== bigmem: 1M-cell legalization under an address-space cap =="
  # Opt-in (several minutes of solve time): legalize the 1M-cell baseline
  # scale design end to end inside a ulimit -v cap. The streamed spine
  # peaks near 0.5 GB at 1M cells and the pre-refactor layout needed ~1.1 GB
  # (see results/scaling_memory.txt), so a 1 GiB address-space cap gives
  # the current layout 2x headroom while a regression that reintroduces a
  # staging copy or an extract-everything high-water mark aborts on
  # allocation instead of silently fitting. Requires the Release bench
  # build from the tier-1 step above.
  cmake --build build -j4 --target scaling_memory
  (
    ulimit -v $((1024 * 1024))  # 1 GiB of address space
    build/bench/scaling_memory --point baseline 1000000
  )
fi

if [[ -n "$SKIPPED" ]]; then
  echo "verify: OK, with skipped gates: $SKIPPED"
else
  echo "verify: OK"
fi
