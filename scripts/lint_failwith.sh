#!/bin/sh
# Fail if a bare `failwith` is introduced under lib/ outside the structured
# diagnostics policy. New library code must raise typed exceptions (and
# convert them to Diag.t at API boundaries) or return Results carrying
# Diag.t; `failwith` gives callers nothing to isolate or render.
#
# lib/diag/ itself (conversion shims) is exempt.
set -eu

cd "$(dirname "$0")/.."

offenders=$(grep -rn "failwith" lib --include="*.ml" --include="*.mli" \
  | grep -v "^lib/diag/" || true)

if [ -n "$offenders" ]; then
  echo "lint_failwith: bare failwith under lib/:" >&2
  echo "$offenders" >&2
  echo "Raise a typed exception and add a Diag conversion shim instead." >&2
  exit 1
fi

echo "lint_failwith: ok"
