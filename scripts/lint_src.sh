#!/bin/sh
# Source-hygiene gate for the core libraries: no new bare `failwith` or
# `assert false` in lib/vmm, lib/shadow or lib/minic, no
# environment-variable reads in lib, bin or bench, no second loop
# over forked connections outside lib/farm, no second classifier
# of seeded-bug outcomes outside Workload.Fault_injection, no second
# coverage predicate outside Minic.Dangling, and no raw Vmm.Kernel
# mapping call (mmap, mmap_fixed, mremap_alias*, mprotect, munmap) in
# lib, bin, bench or examples outside lib/vmm.  An occurrence is
# allowed only when it names the invariant it guards within three lines
# (the convention every existing call site follows); anything else
# should be a typed error the caller can handle.  `dune runtest` runs it
# (see scripts/dune); exits 1 listing every offender, silent when clean.
set -eu

cd "$(dirname "$0")/.."

# Every search is `grep -R`, not `-r`: under `dune runtest` the sources
# are symlinks into the build sandbox, and `-r` skips the symlinks it
# meets while recursing, which would make each rule pass unseen.

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
# conditional comparisons against any CLI scheme name.
names='native|llvm|pa-dummy|ours|ours-basic|ours-bounds|ours-inferred|ours-epoch|tagged|ladder|efence|valgrind|capability'
scheme_match=$( {
  grep -RnE "\| +\"($names)(\+recover)?\"" \
    lib bin bench test examples --include='*.ml' || true
  grep -RnE "String\.equal[^\"]*\"($names)(\+recover)?\"" \
    lib bin bench test examples --include='*.ml' || true
  grep -RnE "if [^;\"]*(=|<>) *\"($names)(\+recover)?\"" \
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
  grep -RnwE 'Points_to|Pt_query' \
    lib bin bench test examples --include='*.ml' --include='*.mli' || true
  find lib bin bench test examples -name 'points_to.ml*' -o -name 'pt_query.ml*'
} )
if [ -n "$second_engine" ]; then
  echo "lint-src: second points-to engine (Points_to/Pt_query) reintroduced:" >&2
  echo "$second_engine" >&2
  fail=1
fi

# One scheme builder: every Scheme.t record comes from Pool_scheme.build,
# which puns the name field, so a `Scheme.name = "..."` literal is a
# hand-built record growing its own copy of the malloc/free/pool
# plumbing.  Renaming updates (`{ base with Scheme.name = ... }`) take
# the name from the record they copy and do not match.
hand_built=$(grep -RnE 'Scheme\.name *= *"' \
  lib bin bench test examples --include='*.ml' || true)
if [ -n "$hand_built" ]; then
  echo "lint-src: Scheme.t record built by hand (use Pool_scheme.build):" >&2
  echo "$hand_built" >&2
  fail=1
fi

# One server loop: Danguard_farm.Farm.run is the only code that serves
# forked connections, so every server experiment shares its totals,
# latency histogram and crash pipeline.  Any other caller of the
# per-child primitive (by name, so an alias is caught too) is a second
# loop growing its own accumulators.  Tests and examples may still call
# it directly.
second_loop=$(grep -Rnw 'run_connection' lib bin bench \
  --include='*.ml' --include='*.mli' \
  | grep -vE '^lib/farm/|^lib/runtime/process\.mli?:' || true)
if [ -n "$second_loop" ]; then
  echo "lint-src: connections served outside Farm.run (call Farm.run):" >&2
  echo "$second_loop" >&2
  fail=1
fi

# One classifier of seeded bugs: Workload.Fault_injection.observe is
# the only code outside the allocator that names a corrupted heap, so
# every judged probe (detection matrix, fault campaign, bench probes)
# gets the same Detected/Silent/Crashed verdict.  Any other mention is
# a second catch-list growing its own outcome type.
second_classifier=$(grep -Rnw 'Heap_corruption' lib bin bench \
  --include='*.ml' --include='*.mli' \
  | grep -vE '^lib/heap/|^lib/workload/fault_injection\.mli?:' || true)
if [ -n "$second_classifier" ]; then
  echo "lint-src: seeded-bug outcome classified outside Fault_injection.observe:" >&2
  echo "$second_classifier" >&2
  fail=1
fi

# One coverage predicate: Minic.Dangling.covers is the only test of
# "did the analysis flag this use".  A second `verdict <> Safe` filter
# outside lib/minic is a copy of the soundness check that can drift
# from it.
second_cover=$(grep -RnE 'verdict *<> *([A-Z][A-Za-z_]*\.)*Safe\b' \
  lib bin bench test examples --include='*.ml' \
  | grep -v '^lib/minic/' || true)
if [ -n "$second_cover" ]; then
  echo "lint-src: flagged-site test outside Minic.Dangling (use covers):" >&2
  echo "$second_cover" >&2
  fail=1
fi

# One syscall boundary: outside lib/vmm every mapping call goes through
# Vmm.Syscalls, so the fault plan can fail it, its failures are counted
# and traced, and its caller handles a typed error.  Kernel is the raw
# layer under Syscalls; tests and benchmark/'s timings of the bare calls
# may still use it.
raw_syscall=$(grep -RnE \
  'Kernel\.(mmap|mmap_fixed|mremap_alias[a-z_]*|mprotect|munmap)\b' \
  lib bin bench examples --include='*.ml' --include='*.mli' \
  | grep -v '^lib/vmm/' || true)
if [ -n "$raw_syscall" ]; then
  echo "lint-src: raw Kernel mapping call outside lib/vmm (use Vmm.Syscalls):" >&2
  echo "$raw_syscall" >&2
  fail=1
fi

# Settings arrive as typed arguments (CLI flags, optional parameters),
# never from the environment: a variable read deep in the code is a
# configuration no test or golden sees.
env_reads=$(grep -RnE 'Sys\.getenv' lib bin bench --include='*.ml' || true)
if [ -n "$env_reads" ]; then
  echo "lint-src: environment variable read (pass a typed argument instead):" >&2
  echo "$env_reads" >&2
  fail=1
fi

exit "$fail"
