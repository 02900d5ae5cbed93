#!/usr/bin/env bash
# Line counts of the C++ sources under src/, tests/ and bench/ (headers and
# .cpp files): the tracked "line count" of ROADMAP.md's design aim.
#
# Usage: scripts/line_count.sh
set -euo pipefail

cd "$(dirname "$0")/.."
for dir in src tests bench; do
  printf '%-6s %6d\n' "$dir" \
    "$(find "$dir" -name '*.h' -o -name '*.cpp' | xargs cat | wc -l)"
done
