#!/usr/bin/env bash
# Smoke check: project lint, tier-1 tests, the quickstart,
# interchange-format, stop-sign and fault-campaign examples, and a
# seeded serving chaos scenario, each under a timeout.  Intended as
# the minimal pre-merge gate:
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

for example in quickstart export_hybrid_ir stop_sign_pipeline fault_campaign; do
    echo "== examples/${example}.py (timeout ${EXAMPLE_TIMEOUT}s) =="
    timeout "${EXAMPLE_TIMEOUT}" python "examples/${example}.py"
done

echo "== serving chaos scenario (seeded, invariants gate) =="
CHAOS_TIMEOUT="${SMOKE_CHAOS_TIMEOUT:-120}"
timeout "${CHAOS_TIMEOUT}" python scripts/chaos.py run \
    --fault storm --trials 1 --requests 8 --seed 0

echo "smoke: OK"
