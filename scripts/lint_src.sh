#!/bin/sh
# Source-hygiene gate for the core libraries: no new bare `failwith` or
# `assert false` in lib/vmm, lib/shadow or lib/minic, and no
# environment-variable reads in lib, bin or bench.  An occurrence is
# allowed only when it names the invariant it guards within three lines
# (the convention every existing call site follows); anything else
# should be a typed error the caller can handle.  `dune runtest` runs it
# (see scripts/dune); exits 1 listing every offender, silent when clean.
set -eu

cd "$(dirname "$0")/.."

fail=0
for f in $(find lib/vmm lib/shadow lib/minic -name '*.ml' | sort); do
  bad=$(awk '
    { lines[NR] = $0 }
    /failwith|assert false/ { cand[NR] = 1 }
    END {
      for (n in cand) {
        ok = 0
        for (i = n - 3; i <= n + 3; i++)
          if (i in lines && lines[i] ~ /invariant/) ok = 1
        if (!ok)
          print FILENAME ":" n \
            ": bare failwith/assert false without a named invariant"
      }
    }' "$f")
  if [ -n "$bad" ]; then
    echo "$bad" >&2
    fail=1
  fi
done

# Scheme names are typed: only Runtime.Scheme_spec.of_string may branch
# on a scheme-name string.  Everywhere else must pattern-match the
# Scheme_spec.t constructors, so adding a scheme is one file, not a
# grep-and-pray across the tree.  Catches match arms, String.equal and
# conditional comparisons against any CLI scheme name; record
# construction (Scheme.name = "...") is deliberately not flagged.
names='native|llvm|pa-dummy|ours|ours-basic|ours-bounds|ours-inferred|ours-epoch|tagged|ladder|efence|valgrind|capability'
scheme_match=$( {
  grep -rnE "\| +\"($names)(\+recover)?\"" \
    lib bin bench test examples --include='*.ml' || true
  grep -rnE "String\.equal[^\"]*\"($names)(\+recover)?\"" \
    lib bin bench test examples --include='*.ml' || true
  grep -rnE "if [^;\"]*(=|<>) *\"($names)(\+recover)?\"" \
    lib bin bench test examples --include='*.ml' || true
} | grep -v '^lib/runtime/scheme_spec\.ml:' || true)
if [ -n "$scheme_match" ]; then
  echo "lint-src: scheme-name string matching outside Scheme_spec.of_string:" >&2
  echo "$scheme_match" >&2
  fail=1
fi

# One points-to engine: every MiniC pass runs on Minic.Dsa.  The retired
# Steensgaard engine and its engine-agnostic query record must not come
# back as a second implementation.
second_engine=$( {
  grep -rnwE 'Points_to|Pt_query' \
    lib bin bench test examples --include='*.ml' --include='*.mli' || true
  find lib bin bench test examples -name 'points_to.ml*' -o -name 'pt_query.ml*'
} )
if [ -n "$second_engine" ]; then
  echo "lint-src: second points-to engine (Points_to/Pt_query) reintroduced:" >&2
  echo "$second_engine" >&2
  fail=1
fi

# Settings arrive as typed arguments (CLI flags, optional parameters),
# never from the environment: a variable read deep in the code is a
# configuration no test or golden sees.
env_reads=$(grep -rnE 'Sys\.getenv' lib bin bench --include='*.ml' || true)
if [ -n "$env_reads" ]; then
  echo "lint-src: environment variable read (pass a typed argument instead):" >&2
  echo "$env_reads" >&2
  fail=1
fi

exit "$fail"
