#!/usr/bin/env bash
# Local tier-1 verify: format check, lint gates, then configure, build
# every target and run the full test suite. Mirrors
# .github/workflows/ci.yml, which runs everything but the format check.
set -euo pipefail

cd "$(dirname "$0")/.."

# Formatting gate (skipped with a note where clang-format is absent, e.g.
# minimal containers; CI images have it).
if command -v clang-format >/dev/null 2>&1; then
  git ls-files '*.h' '*.cc' '*.cpp' | xargs clang-format --dry-run --Werror
else
  echo "check.sh: clang-format not found; skipping format check" >&2
fi

# Lint gates (ingestion API, write accounting, batch drain, source
# errors, cache baselines, docs tables, /// contracts, metric catalogue).
bash scripts/lint.sh

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
