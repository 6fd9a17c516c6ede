.PHONY: all build test bench bench-quick bench-xl dkbench dkbench-ab serve loadgen examples loc clean fmt

all: build test

build:
	dune build @all

test:
	dune runtest

# Full paper reproduction + extension experiments + micro-benchmarks.
bench:
	dune exec bench/main.exe -- --bechamel

bench-quick:
	dune exec bench/main.exe -- --quick

# The out-of-core scale:xl series: streamed 10M-edge datagen, the
# external-memory D(k) build under a 512 MiB OCaml heap cap, O(1)
# container opens, mmap-backed queries and the in-memory copy of the
# mapped index, each bench in a fresh process reporting its peak RSS.
bench-xl:
	dune exec bench/main.exe -- --xl

# The end-to-end benchmark behind BENCHMARK.json: one run of each
# workload against a freshly spawned dkindex-server (bench/suite/README.md).
DKBENCH_WORKLOADS = hot-read cold-read mixed-write restart
dkbench:
	for w in $(DKBENCH_WORKLOADS); do \
	  bash bench/suite/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# Interleaved A/B of one workload's setup_s: BASE (any git revision,
# built in a worktree under _build/ab-base) against this checkout,
# PAIRS runs each, alternating which side goes first (bench/ab.sh).
PAIRS = 5
dkbench-ab:
	bash bench/ab.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Serve the pinned XMark dataset over TCP (dkserve protocol, DESIGN.md 9).
serve:
	dune exec dkindex-server -- --xmark 40 --port 7411 --snapshot auction.index

# Drive a running server: every answer bit for bit against the
# in-process index, through a stream of edge additions.  Throughput
# and latency, with their spread, are dkbench's.
loadgen:
	dune exec dkindex-loadgen -- --port 7411 --xmark 40 -c 4 --check

examples:
	dune exec examples/quickstart.exe
	dune exec examples/movie_db.exe
	dune exec examples/auction_workload.exe
	dune exec examples/adaptive_updates.exe
	dune exec examples/branching_queries.exe
	dune exec examples/self_tuning.exe

# Source line totals (.ml, .mli, both) per tree, _build excluded, then
# lib+bin: the one number subtraction changes quote before and after.
LOC_TREES = lib bin bench test
loc:
	@printf '%-8s %7s %7s %7s\n' tree .ml .mli total
	@for d in $(LOC_TREES) "lib bin"; do \
	  ml=$$(find $$d -name _build -prune -o -name '*.ml' -exec cat {} + | wc -l); \
	  mli=$$(find $$d -name _build -prune -o -name '*.mli' -exec cat {} + | wc -l); \
	  printf '%-8s %7d %7d %7d\n' "$$(echo $$d | tr ' ' +)" $$ml $$mli $$((ml + mli)); \
	done

clean:
	dune clean
