#!/usr/bin/env bash
# Tier-1 verification: five stages, mirrored one-to-one by the CI jobs in
# .github/workflows/ci.yml (docs/ANALYSIS.md describes the matrix):
#
#   1. plain     — RelWithDebInfo build + full ctest (what CI gates on)
#   2. analyze   — tools/ecrs_analyze over src/ against the stage-1
#                  compilation database, plus the diagnostic corpus and the
#                  lint-rule unit tests
#   3. asan      — the same suite under AddressSanitizer + UBSan, with
#                  warnings-as-errors and the mechanism self-audit on
#   4. tsan      — ThreadSanitizer build; runs the concurrency stress
#                  harness (pool sizes 1, 2, hardware_concurrency) plus the
#                  mechanism/property suites that exercise the parallel
#                  payment fan-out
#   5. lint      — ecrs-lint + clang-format check (format check is skipped
#                  with a notice when clang-format is not installed)
#
#   tools/verify.sh            # all five stages
#   tools/verify.sh --fast     # stage 1 only
#   tools/verify.sh --analyze  # stage 2 only (needs a configured build/)
#   tools/verify.sh --format   # format check only
#   tools/verify.sh --lint     # stage 5 only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

format_check() {
  echo "== format check (clang-format, check-only) =="
  local clang_format
  clang_format="$(command -v clang-format || true)"
  if [[ -z "${clang_format}" ]]; then
    echo "clang-format not installed; skipping (ecrs-lint still enforces the"
    echo "whitespace baseline — see docs/ANALYSIS.md)"
    return 0
  fi
  # Check-only: a diff fails the stage but nothing is rewritten.
  find src tests tools bench examples \
    \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) -print0 |
    xargs -0 "${clang_format}" --dry-run -Werror
  echo "format: clean"
}

lint_stage() {
  echo "== ecrs-lint =="
  python3 tools/ecrs_lint.py --root .
  python3 tools/test_ecrs_lint.py
  format_check
}

analyze_stage() {
  echo "== ecrs-analyze (call-graph purity / determinism / sentinels) =="
  if [[ ! -f build/compile_commands.json ]]; then
    echo "error: build/compile_commands.json is missing." >&2
    echo "Run \`cmake --preset default\` first — every preset exports the" >&2
    echo "compilation database (CMAKE_EXPORT_COMPILE_COMMANDS=ON) that the" >&2
    echo "analyzer's clang front-end and clang tooling consume." >&2
    exit 1
  fi
  python3 tools/ecrs_analyze --root . \
    --compdb build/compile_commands.json src
  python3 tests/analyze_corpus/run_corpus.py
}

case "${1:-}" in
  --format)
    format_check
    exit 0
    ;;
  --lint)
    lint_stage
    exit 0
    ;;
  --analyze)
    analyze_stage
    exit 0
    ;;
esac

echo "== stage 1/5: plain build + ctest =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo "== stage 2/5: static analysis =="
analyze_stage

echo "== stage 3/5: ASan+UBSan build + ctest =="
cmake --preset sanitize >/dev/null
cmake --build --preset sanitize -j "$JOBS"
ctest --preset sanitize -j "$JOBS"

echo "== stage 4/5: TSan build + concurrency suite =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS"
# The stress harness iterates pool sizes {1, 2, hardware_concurrency}
# internally (tests/concurrency_stress_test.cc); the companion suites cover
# the parallel SSAM payment fan-out, the generator's parallel passes, the
# sharded marketplace and the daemon's lane delivery end to end — the same
# set as CI's tsan job. halt_on_error: any report fails the stage.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}" \
  ctest --preset tsan -j "$JOBS" \
    -R 'concurrency_stress_test|sweep_test|market_test|daemon_test|common_test|workload_test|ssam_test|msoa_test|properties_test|audit_test|compiled_test|compiled_fuzz_test'

echo "== stage 5/5: lint + format =="
lint_stage

echo "verify: all five stages green"
