#!/usr/bin/env bash
# Tier-1 verification: plain build + ctest, then the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer in a second build tree,
# plus an optional static-analysis pass.
#
# Thread-safety: every build here compiles with -Wthread-safety as
# -Werror=thread-safety when the compiler supports it (clang; probed in
# CMakeLists.txt), so annotation violations in base/thread_pool,
# serve/admission, and serve/server fail the build rather than lint.
#
#   scripts/check.sh            # plain + sanitizer passes
#   scripts/check.sh --plain    # skip the sanitizer pass
#   scripts/check.sh --san      # sanitizer pass only
#   scripts/check.sh --tsan     # add a ThreadSanitizer pass (third build
#                               # tree build-tsan; TSan cannot share a
#                               # binary with ASan, hence its own tree) —
#                               # exercises the thread-pool paths of the
#                               # chase/assessor/rewriter under the full
#                               # suite
#   scripts/check.sh --lint     # add the lint pass: clang-tidy over src/
#                               # (skipped when not installed) and
#                               # mdqa_lint --werror over examples/scripts/
#   scripts/check.sh --analyze  # whole-program analysis pass: mdqa_lint
#                               # --analyze --werror over every
#                               # examples/scripts/*.dlg with the ASan/
#                               # UBSan build, so the dataflow passes and
#                               # the cost planner themselves run
#                               # sanitized
#   scripts/check.sh --incremental
#                               # focused pass for the incremental-chase
#                               # paths: runs the incremental differential
#                               # suite (Extend vs from-scratch, 1 and 4
#                               # threads) under both ASan/UBSan and TSan
#   scripts/check.sh --scenarios [--seed N]
#                               # focused pass for the generated scenario
#                               # corpus: the full matrix (testgen_test +
#                               # scenario_matrix_test, seeds 1-3) under
#                               # ASan/UBSan, then a reduced matrix (one
#                               # seed per family, MDQA_SCENARIO_REDUCED=1)
#                               # under TSan. --seed N pins every matrix
#                               # cell to one seed (MDQA_SCENARIO_SEED) —
#                               # use it to replay a failing cell from a
#                               # ctest log; see docs/testing.md
#   scripts/check.sh --columnar [--seed N]
#                               # focused pass for the columnar storage
#                               # layer and the vectorized join executor:
#                               # the storage unit tests plus the full
#                               # executor differential (columnar_test +
#                               # executor_diff_test: BlockJoin against
#                               # the backtracking evaluator, solution by
#                               # solution, on every scenario family and
#                               # update batch) under ASan/UBSan, then a
#                               # reduced matrix (MDQA_SCENARIO_REDUCED=1)
#                               # under TSan. --seed N pins the matrix
#                               # cells (MDQA_SCENARIO_SEED)
#   scripts/check.sh --durability
#                               # focused pass for the crash-safe storage
#                               # layer (docs/durability.md): the storage
#                               # unit tests, the seeded crash matrix
#                               # (>=200 kill points, recovery
#                               # byte-matched against a from-scratch
#                               # oracle), and the serve restart-resume
#                               # suite under ASan/UBSan, then the crash
#                               # matrix again under TSan (the WAL append
#                               # runs on the writer thread; the drain
#                               # checkpoint on the shutdown path)
#   scripts/check.sh --serve    # focused pass for the assessment daemon:
#                               # mdqa_serve --help + --smoke start/stop,
#                               # then the chaos/soak harness at
#                               # MDQA_SOAK_SECONDS=30 under both
#                               # ASan/UBSan and TSan (torn snapshots and
#                               # vocab races are exactly what TSan is
#                               # for; the soak's oracle byte-compare
#                               # catches everything else)
#   scripts/check.sh --perf-smoke
#                               # the benchmark's smoke test
#                               # (python3 perfbench/smoke_test.py):
#                               # every perfbench workload for a few ops,
#                               # untraced and traced, through its gates —
#                               # byte-identical reports, precision =
#                               # recall = 1 against the planted truth,
#                               # and no Chase::Extend fallback. It
#                               # compiles a second, Release tree
#                               # (.bench_build/, about 80 s the first
#                               # time), so it stays out of tier-1 ctest
set -euo pipefail

cd "$(dirname "$0")/.."

run_plain=1
run_san=1
run_tsan=0
run_lint=0
run_analyze=0
run_incremental=0
run_serve=0
run_scenarios=0
run_columnar=0
run_durability=0
run_perf_smoke=0
scenario_seed=""
expect_seed=0
for arg in "$@"; do
  if [[ $expect_seed -eq 1 ]]; then
    scenario_seed="$arg"
    expect_seed=0
    continue
  fi
  case "$arg" in
    --plain) run_san=0 ;;
    --san) run_plain=0 ;;
    --tsan) run_tsan=1 ;;
    --lint) run_lint=1 ;;
    --analyze) run_analyze=1; run_plain=0; run_san=0 ;;
    --incremental) run_incremental=1; run_plain=0; run_san=0 ;;
    --serve) run_serve=1; run_plain=0; run_san=0 ;;
    --scenarios) run_scenarios=1; run_plain=0; run_san=0 ;;
    --columnar) run_columnar=1; run_plain=0; run_san=0 ;;
    --durability) run_durability=1; run_plain=0; run_san=0 ;;
    --perf-smoke) run_perf_smoke=1; run_plain=0; run_san=0 ;;
    --seed) expect_seed=1 ;;
    --seed=*) scenario_seed="${arg#--seed=}" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done
if [[ $expect_seed -eq 1 ]]; then
  echo "--seed requires a value" >&2
  exit 2
fi
if [[ -n $scenario_seed && $run_scenarios -eq 0 && $run_columnar -eq 0 ]]; then
  echo "--seed only applies with --scenarios or --columnar" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 4)

if [[ $run_plain -eq 1 ]]; then
  echo "== plain build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
fi

if [[ $run_san -eq 1 ]]; then
  echo "== ASan/UBSan build + ctest =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs"
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-san --output-on-failure -j "$jobs"
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan build + ctest =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs"
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs"
fi

if [[ $run_incremental -eq 1 ]]; then
  echo "== incremental differential suite under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" --target incremental_diff_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/incremental_diff_test

  echo "== incremental differential suite under TSan =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs" --target incremental_diff_test
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/incremental_diff_test
fi

if [[ $run_scenarios -eq 1 ]]; then
  # MDQA_SCENARIO_SEED pins every matrix cell to one seed for replaying a
  # failure; otherwise the ASan pass runs the full seed set and the TSan
  # pass a reduced one-seed-per-family matrix (TSan is ~10x slower).
  seed_env=()
  if [[ -n $scenario_seed ]]; then
    seed_env=(MDQA_SCENARIO_SEED="$scenario_seed")
    echo "== scenario matrix pinned to seed $scenario_seed =="
  fi

  echo "== scenario matrix (full) under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" \
    --target testgen_test scenario_matrix_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    env "${seed_env[@]}" ./build-san/tests/testgen_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    env "${seed_env[@]}" ./build-san/tests/scenario_matrix_test

  echo "== scenario matrix (reduced) under TSan =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target testgen_test scenario_matrix_test
  TSAN_OPTIONS=halt_on_error=1 \
    env MDQA_SCENARIO_REDUCED=1 "${seed_env[@]}" \
    ./build-tsan/tests/testgen_test
  TSAN_OPTIONS=halt_on_error=1 \
    env MDQA_SCENARIO_REDUCED=1 "${seed_env[@]}" \
    ./build-tsan/tests/scenario_matrix_test
fi

if [[ $run_columnar -eq 1 ]]; then
  seed_env=()
  if [[ -n $scenario_seed ]]; then
    seed_env=(MDQA_SCENARIO_SEED="$scenario_seed")
    echo "== columnar matrix pinned to seed $scenario_seed =="
  fi

  echo "== columnar storage + executor differential (full) under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" \
    --target columnar_test executor_diff_test instance_test cq_eval_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/columnar_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/instance_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/cq_eval_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    env "${seed_env[@]}" ./build-san/tests/executor_diff_test

  echo "== executor differential (reduced) under TSan =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs" --target executor_diff_test
  TSAN_OPTIONS=halt_on_error=1 \
    env MDQA_SCENARIO_REDUCED=1 "${seed_env[@]}" \
    ./build-tsan/tests/executor_diff_test
fi

if [[ $run_durability -eq 1 ]]; then
  echo "== durability suite (storage units + crash matrix + serve resume) under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" \
    --target storage_test durability_crash_test serve_durability_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/storage_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/durability_crash_test
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ./build-san/tests/serve_durability_test

  # TSan pass: the crash matrix itself is single-threaded filesystem
  # modeling, but the serve resume suite drives the real writer thread's
  # WAL appends and the drain checkpoint — that is where a race would
  # live. The bit-rot battery is skipped under TSan (pure re-decoding,
  # ~10x slower, no threads).
  echo "== durability suite (reduced) under TSan =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target durability_crash_test serve_durability_test
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/durability_crash_test \
    --gtest_filter='-CrashMatrix.BitRotNeverServesACorruptImage'
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/serve_durability_test
fi

if [[ $run_serve -eq 1 ]]; then
  soak_secs="${MDQA_SOAK_SECONDS:-30}"

  echo "== mdqa_serve smoke (plain build) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target mdqa_serve
  ./build/tools/mdqa_serve --help >/dev/null
  ./build/tools/mdqa_serve --smoke --threads=2

  echo "== serve soak (${soak_secs}s) under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" --target serve_soak_test mdqa_serve
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    MDQA_SOAK_SECONDS="$soak_secs" ./build-san/tests/serve_soak_test
  ./build-san/tools/mdqa_serve --smoke --threads=2

  echo "== serve soak (${soak_secs}s) under TSan =="
  cmake -B build-tsan -S . -DMDQA_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs" --target serve_soak_test mdqa_serve
  TSAN_OPTIONS=halt_on_error=1 \
    MDQA_SOAK_SECONDS="$soak_secs" ./build-tsan/tests/serve_soak_test
  ./build-tsan/tools/mdqa_serve --smoke --threads=2
fi

if [[ $run_perf_smoke -eq 1 ]]; then
  echo "== benchmark smoke test (perfbench/smoke_test.py) =="
  python3 perfbench/smoke_test.py
fi

if [[ $run_analyze -eq 1 ]]; then
  echo "== whole-program analysis (mdqa_lint --analyze) under ASan/UBSan =="
  cmake -B build-san -S . -DMDQA_SANITIZE="address;undefined" >/dev/null
  cmake --build build-san -j "$jobs" --target mdqa_lint
  for script in examples/scripts/*.dlg; do
    echo "-- $script"
    UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
      ./build-san/tools/mdqa_lint --analyze --werror "$script" >/dev/null
  done
fi

if [[ $run_lint -eq 1 ]]; then
  echo "== lint =="
  # Ensure a build tree with compile_commands.json and mdqa_lint exists.
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target mdqa_lint

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "-- clang-tidy (src/)"
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(find src -name '*.cc') 2>/dev/null
  else
    echo "-- clang-tidy not installed; skipping (config: .clang-tidy)"
  fi

  echo "-- mdqa_lint --werror examples/scripts/*.dlg"
  ./build/tools/mdqa_lint --werror examples/scripts/*.dlg
fi

echo "all checks passed"
