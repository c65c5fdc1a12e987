#!/usr/bin/env bash
# Smoke check: project lint, tier-1 tests, the quickstart,
# interchange-format and stop-sign examples, a seeded serving chaos
# scenario, and the qualifier throughput bench filed into a scratch
# catalog, each under a timeout.  Intended as the minimal pre-merge
# gate:
#
#   scripts/smoke.sh            # ~2-3 minutes
#   SMOKE_TEST_TIMEOUT=1200 scripts/smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

TEST_TIMEOUT="${SMOKE_TEST_TIMEOUT:-600}"
EXAMPLE_TIMEOUT="${SMOKE_EXAMPLE_TIMEOUT:-300}"
LINT_TIMEOUT="${SMOKE_LINT_TIMEOUT:-120}"

echo "== determinism lint, project pass (timeout ${LINT_TIMEOUT}s) =="
timeout "${LINT_TIMEOUT}" python -m repro.lint --project src tests benchmarks

echo "== tier-1 tests (timeout ${TEST_TIMEOUT}s) =="
timeout "${TEST_TIMEOUT}" python -m pytest -x -q -m "not slow"

for example in quickstart export_hybrid_ir stop_sign_pipeline; do
    echo "== examples/${example}.py (timeout ${EXAMPLE_TIMEOUT}s) =="
    timeout "${EXAMPLE_TIMEOUT}" python "examples/${example}.py"
done

echo "== serving chaos scenario (seeded, invariants gate) =="
CHAOS_TIMEOUT="${SMOKE_CHAOS_TIMEOUT:-120}"
timeout "${CHAOS_TIMEOUT}" python scripts/chaos.py run \
    --fault storm --trials 1 --requests 8 --seed 0

echo "== qualifier throughput bench + catalog ingest/trend round-trip =="
# The durable catalog must file a fresh timing artifact and reproduce
# its speedup trend from SQLite.  The bench writes that artifact (the
# batched qualifier's, ~5 s) into a temporary directory, so the step
# works on a fresh clone and leaves no state behind.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
BENCH_TIMEOUT="${SMOKE_BENCH_TIMEOUT:-300}"
BENCH_ARTIFACT_DIR="${SMOKE_DIR}/artifacts" timeout "${BENCH_TIMEOUT}" \
    python -m pytest -q \
    benchmarks/test_qualifier_throughput.py
python scripts/catalog.py --db "${SMOKE_DIR}/catalog.sqlite" \
    ingest "${SMOKE_DIR}/artifacts"
python scripts/catalog.py --db "${SMOKE_DIR}/catalog.sqlite" trend

echo "smoke: OK"
