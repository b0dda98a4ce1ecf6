#!/usr/bin/env bash
# Fails when a library header has no caller: some src/**/*.h that nothing in
# src/, tools/, bench/, examples/ or perfbench/ #includes, apart from the
# header's own .cc. Tests do not count as callers — a module that only its
# test reaches is dead code.
#
# usage: tools/check_callers.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

dirs=()
for d in src tools bench examples perfbench; do
  [[ -d "$d" ]] && dirs+=("$d")
done

fail=0
checked=0
while IFS= read -r header; do
  rel="${header#src/}"          # include path, e.g. graph/k_core.h
  own="src/${rel%.h}.cc"
  checked=$((checked + 1))
  if ! grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
         "#include \"$rel\"" "${dirs[@]}" | grep -qvxF "$own"; then
    echo "check_callers: $rel is included by nothing outside $own" >&2
    fail=1
  fi
done < <(find src -name '*.h' | sort)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_callers: all $checked header(s) have a caller"
