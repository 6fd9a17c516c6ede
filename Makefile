.PHONY: all build test bench bench-quick bench-smoke bench-trajectory bench-xl dkbench serve loadgen examples clean fmt

all: build test bench-smoke

build:
	dune build @all

test:
	dune runtest

# Full paper reproduction + extension experiments + micro-benchmarks.
bench:
	dune exec bench/main.exe -- --bechamel

bench-quick:
	dune exec bench/main.exe -- --quick

# Tiny-scale trajectory run (< 30 s): allocation assertions, no JSON.
# Also runs as part of `dune runtest` via the alias in bench/dune.
bench-smoke:
	dune exec bench/trajectory.exe -- --smoke

# Full trajectory pass: writes BENCH_PR14.json with the BENCH_PR10.json
# numbers merged in as baselines.
bench-trajectory:
	dune exec bench/trajectory.exe -- --scale 40 --baseline BENCH_PR10.json --out BENCH_PR14.json

# Trajectory plus the out-of-core scale:xl series: streamed 10M-edge
# datagen, external-memory D(k) build under a 512 MiB OCaml heap cap,
# O(1) mmap opens, mmap-backed queries and the in-memory copy of the
# mapped index — each xl bench in a fresh process with its peak RSS
# recorded in the JSON.
bench-xl:
	dune exec bench/trajectory.exe -- --scale 40 --xl --baseline BENCH_PR10.json --out BENCH_PR14.json

# The end-to-end benchmark behind BENCHMARK.json: one run of each
# workload against a freshly spawned dkindex-server (bench/suite/README.md).
DKBENCH_WORKLOADS = hot-read cold-read mixed-write restart
dkbench:
	for w in $(DKBENCH_WORKLOADS); do \
	  bash bench/suite/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# Serve the pinned XMark dataset over TCP (dkserve protocol, DESIGN.md 9).
serve:
	dune exec dkindex-server -- --xmark 40 --port 7411 --workers 2 --snapshot auction.index

# Drive a running server: throughput + latency percentiles.
loadgen:
	dune exec dkindex-loadgen -- --port 7411 --xmark 40 -c 4 -n 2000

examples:
	dune exec examples/quickstart.exe
	dune exec examples/movie_db.exe
	dune exec examples/auction_workload.exe
	dune exec examples/adaptive_updates.exe
	dune exec examples/branching_queries.exe
	dune exec examples/self_tuning.exe

clean:
	dune clean
