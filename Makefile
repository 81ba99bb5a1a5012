.PHONY: all build test bench check clean

all: build

build:
	dune build

test:
	dune runtest

# Full-scale evaluation; writes BENCH_results.json, then exits nonzero
# if any section's invariants failed (each section checks its own).
bench:
	dune exec bench/main.exe

# The CI gate, and the same one every change runs: build, then every
# test and contract under `dune runtest` — the alcotest suites, the
# CLI transcript (test/cli.t), the smoke bench against its golden
# (bench/dune), source hygiene (scripts/dune) and the benchmark in
# miniature (benchmark/dune).
check:
	dune build
	dune runtest

clean:
	dune clean
