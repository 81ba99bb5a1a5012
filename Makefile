.PHONY: all build test bench bench-smoke faults-smoke farm-smoke report-smoke soak-smoke tag-smoke lint-smoke pools-smoke lint-src check clean

all: build

build:
	dune build

test:
	dune runtest

# Full-scale evaluation; writes BENCH_results.json.
bench:
	dune exec bench/main.exe

# Quick bench run (scale divisor 16) followed by a structural check of
# the results file: fails if BENCH_results.json is malformed or the
# fast-path invariants (no walk on TLB hit, one frame lookup per word
# access) do not hold.  Then every simulated figure must match the
# golden exactly (see bench/golden/README.md to regenerate it).
bench-smoke:
	dune exec bench/main.exe -- --smoke
	dune exec bench/validate_results.exe -- BENCH_results.json
	dune exec bench/strip_results.exe -- BENCH_results.json \
	  > /tmp/bench.smoke.stripped.json
	diff -u bench/golden/smoke.json /tmp/bench.smoke.stripped.json

# Quick fault-injection campaign: exits nonzero if any workload crashes
# undiagnosed or any detection miss cannot be attributed to a recorded
# degradation window.
faults-smoke:
	dune exec bin/danguard.exe -- faults all --scale-divisor 8

# Domain-sharded farm smoke: 2 shards over a small probed connection
# set; nonzero exit if the farm or scheduler misbehaves (the totals
# contract itself is enforced by test/test_farm.ml and bench-smoke).
farm-smoke:
	dune exec bin/danguard.exe -- farm ghttpd --shards 2 -c 12 --probe-every 4

# Fleet crash-report smoke: a recoverable-mode farm run with seeded
# probes over 2 injection sites; the command exits nonzero if any
# violation escapes recovery or any seeded probe goes unreported.
report-smoke:
	dune exec bin/danguard.exe -- report ghttpd --shards 2 -c 16 --probe-every 4 --sites 2

# Multi-day endurance smoke: a 3-simulated-day ghttpd soak with the
# conservative GC armed; nonzero exit if any planted probe fails to
# trap, any witnessed range is reclaimed, the budget exhausts, or the
# VA growth curve fails to flatten.  The --no-reclaim run checks the
# oracle on the baseline (exhaustion there is expected, not fatal).
soak-smoke:
	dune exec bin/danguard.exe -- soak --days 3 -c 120
	dune exec bin/danguard.exe -- soak --days 3 -c 120 --no-reclaim

# Tagged-backend smoke: the generation-table unit suite, the
# shadow-vs-tagged differential oracle (must be byte-identical modulo
# attributed tag-width wraparounds), and a 2-shard farm serving under
# --scheme tagged with seeded dangling probes.
tag-smoke:
	dune exec test/test_tagging.exe
	dune exec test/test_dangling.exe -- test oracle
	dune exec bin/danguard.exe -- farm ghttpd --shards 2 -c 12 --probe-every 4 --scheme tagged

# Static-analysis CLI smoke: exit codes (0 clean/may, 3 must-UAF) and
# the machine-readable output pinned by the golden files.  Then the
# file-reading commands on a directory, and `compile --run` on a program
# that fails at run time, must each fail with a clean error: a nonzero
# exit other than 125 and no uncaught exception.
lint-smoke:
	dune build bin/danguard.exe
	dune exec bin/danguard.exe -- lint examples/lint/safe.mc
	dune exec bin/danguard.exe -- lint examples/lint/may_alias.mc
	dune exec bin/danguard.exe -- lint examples/lint/deep_free.mc
	! dune exec bin/danguard.exe -- lint examples/lint/must_uaf.mc
	! dune exec bin/danguard.exe -- lint examples/lint/double_free.mc
	@for f in safe must_uaf may_alias double_free deep_free; do \
	  rc=0; \
	  dune exec bin/danguard.exe -- lint --json examples/lint/$$f.mc \
	    > /tmp/lint.$$f.json || rc=$$?; \
	  { [ $$rc -eq 0 ] || [ $$rc -eq 3 ]; } || exit 1; \
	  diff -u examples/lint/$$f.expected.json /tmp/lint.$$f.json || exit 1; \
	done
	@for args in "compile examples" "lint examples" "pools examples" \
	    "trace examples" "compile --run examples/lint/negative_count.mc"; do \
	  rc=0; out=$$(dune exec bin/danguard.exe -- $$args 2>&1) || rc=$$?; \
	  if [ $$rc -eq 0 ] || [ $$rc -eq 125 ] || \
	     echo "$$out" | grep -q "uncaught exception"; then \
	    echo "danguard $$args: exit $$rc"; echo "$$out"; exit 1; \
	  fi; \
	done
	@echo "lint-smoke: OK"

# Pool-inference CLI smoke: the human pool map renders, the SARIF
# export matches its golden, and two independent `pools --json` runs
# over one program are byte-identical (the canonical-pool-map
# determinism contract the bench validator also gates on).
pools-smoke:
	dune build bin/danguard.exe
	dune exec bin/danguard.exe -- pools examples/programs/figure1.mc
	dune exec bin/danguard.exe -- pools --json examples/programs/figure1.mc \
	  > /tmp/pools.a.json
	dune exec bin/danguard.exe -- pools --json examples/programs/figure1.mc \
	  > /tmp/pools.b.json
	diff -u /tmp/pools.a.json /tmp/pools.b.json
	rc=0; dune exec bin/danguard.exe -- lint --sarif examples/lint/must_uaf.mc \
	  > /tmp/lint.must_uaf.sarif || rc=$$?; [ $$rc -eq 3 ] || exit 1
	diff -u examples/lint/must_uaf.expected.sarif /tmp/lint.must_uaf.sarif
	@echo "pools-smoke: OK"

# No new bare failwith / assert false in the core libraries (each must
# name the invariant it guards), no scheme-name string matching outside
# Scheme_spec, and no second points-to engine beside Minic.Dsa; see
# scripts/lint_src.sh.
lint-src:
	sh scripts/lint_src.sh

# The CI gate: build, the whole test suite, and a scale-divided bench
# run that still exercises every section and validates BENCH_results.json.
check:
	dune build
	dune runtest
	$(MAKE) lint-src
	$(MAKE) lint-smoke
	$(MAKE) pools-smoke
	$(MAKE) bench-smoke
	$(MAKE) faults-smoke
	$(MAKE) farm-smoke
	$(MAKE) report-smoke
	$(MAKE) soak-smoke
	$(MAKE) tag-smoke

clean:
	dune clean
