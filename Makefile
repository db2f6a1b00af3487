# Tooling entry points. `make check` is the CI gate: it must stay green
# on every commit.

.PHONY: all build build-flags test examples micro bench-engine \
        bench-engine-smoke bench-fwd bench-fwd-smoke fuzz-quick \
        fuzz-soak campaign-quick workload-smoke workload-bench arena \
        arena-smoke check clean profile

all: build

build:
	dune build @all

test:
	dune runtest

# The default build is optimised (dune-workspace, DESIGN.md §10).  Fail
# if the per-hop library code is compiled -opaque again (the dev
# profile), or if the dev warning set or -inline 200 went missing from
# the root environment.
ENGINE_CMX = _build/default/lib/engine/.themis_engine.objs/native/engine.cmx
DEV_WARNINGS = -w @1..3@5..28@30..39@43@46..47@49..57@61..62-40 -strict-sequence -strict-formats -short-paths -keep-locs
build-flags:
	@rules="$$(dune rules $(ENGINE_CMX))" || exit 1; \
	echo "$$rules" | grep -q ocamlopt || \
	  { echo "build-flags: no ocamlopt rule for $(ENGINE_CMX)"; exit 1; }; \
	if echo "$$rules" | grep -q -- -opaque; then \
	  echo "build-flags: $(ENGINE_CMX) is compiled -opaque"; exit 1; fi; \
	env="$$(dune printenv . | tr -s ' \n' '  ')" || exit 1; \
	echo "$$env" | grep -qF -- '(flags ('"$(DEV_WARNINGS)"'))' || \
	  { echo "build-flags: flags are not the dev warning set"; exit 1; }; \
	echo "$$env" | grep -o 'ocamlopt_flags ([^)]*)' | grep -qF -- '-inline 200' || \
	  { echo "build-flags: ocamlopt_flags lack -inline 200"; exit 1; }; \
	echo "build-flags: OK"

# Every example binary must build *and* run to completion: each is an
# executable piece of documentation, and a demo that crashes is a bug.
examples:
	dune build examples
	dune exec examples/quickstart.exe
	dune exec examples/collective_demo.exe
	dune exec examples/nack_anatomy.exe
	dune exec examples/failure_fallback.exe
	dune exec examples/fat_tree_demo.exe

# Telemetry/data-plane hot paths; the histogram record budget is 100 ns.
micro:
	dune exec bench/main.exe -- micro

# Flat per-function profile of one workload (W = incast, allreduce or
# short-flows; default incast) from a timer-signal PC sampler
# (bench/prof_stubs.c), symbolized with nm; runs the library's own
# runners.  It measures host time, so it is not part of `check`.
# Under the optimised default build, inlined callees (Fifo, Packet.is_*,
# Buffer_pool) are sampled inside their callers, so per-module shares
# are not comparable with tables taken from an -opaque (dev) build.
W ?= incast
profile:
	dune exec bench/profile.exe -- $(W)

# Engine/data-plane benchmark (DESIGN.md §10/§15): events/sec, minor
# words/event, campaign wall-clock and the timing-wheel hit ratio vs
# the frozen 631052b baseline, written to BENCH_engine.json with
# before/after ratios.
bench-engine:
	dune exec bench/engine_bench.exe -- --out BENCH_engine.json

# Smoke variant for CI: tiny iteration counts, no timing gate — only
# asserts the harness runs and emits valid JSON with the expected keys.
bench-engine-smoke:
	dune exec bench/engine_bench.exe -- --smoke --out _build/BENCH_engine.smoke.json

# Forwarding fast path in isolation (DESIGN.md §11): a single switch's
# steady-state packets/sec and words/packet through the compiled
# per-destination port arrays.  Fails if the steady-state loop touches
# a hashtable even once (the zero-probe guarantee).
bench-fwd:
	dune exec bench/engine_bench.exe -- --fwd-only --out BENCH_fwd.json

bench-fwd-smoke:
	dune exec bench/engine_bench.exe -- --fwd-only --smoke --out _build/BENCH_fwd.smoke.json

# Randomized fault-injection sweep with invariant oracles (DESIGN.md §8).
# 200 scenarios x every scheme normally finishes in ~2 s; the wall budget
# stops generating new scenarios if a slow machine would blow the CI
# slot, so coverage degrades gracefully instead of timing out.
fuzz-quick:
	dune exec bin/themis_fuzz_cli.exe -- quick --specs 200 --budget-s 60

fuzz-soak:
	dune exec bin/themis_fuzz_cli.exe -- soak

# Small Fig. 5 slice over the fork pool, then diffed against the frozen
# baseline (tolerance bands + Themis<=AR<=ECMP shape ordering).  --force
# so CI always measures the current tree instead of trusting the cache.
campaign-quick:
	dune exec bin/themis_campaign_cli.exe -- run --preset quick --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset quick

# LB-scheme arena (DESIGN.md §13): rival sprayers (REPS, PRIME,
# Sprinklers, Spritz) against Themis and the baselines across the
# adversarial path scenarios, gated against the frozen baseline.  The
# gate also asserts zero fuzz-oracle violations per cell and zero
# out-of-order arrivals for Sprinklers on the symmetric fabric.
arena:
	dune exec bin/themis_campaign_cli.exe -- run --preset arena --workers 4 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset arena
	dune exec bin/themis_campaign_cli.exe -- report --preset arena

# CI slice: 3 schemes x 2 scenarios.
arena-smoke:
	dune exec bin/themis_campaign_cli.exe -- run --preset arena-smoke --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset arena-smoke

# Regenerate every paper figure/study/fuzz campaign and refreeze the
# committed baselines (run after an intentional model change).
campaign-refreeze:
	for p in quick fig1 fig5a incast ablation fuzz mix load-sweep failures arena arena-smoke; do \
	  dune exec bin/themis_campaign_cli.exe -- run --preset $$p --workers 4 --force --quiet && \
	  dune exec bin/themis_campaign_cli.exe -- freeze --preset $$p || exit 1; \
	done

# Production-workload gate (DESIGN.md §12): the mix scenario (websearch
# open-loop + allreduce overlay) over the fork pool, gated against its
# frozen baseline, then the streaming bench's 50k-flow smoke asserting
# the O(active-flows) live high-water mark and full completion.
workload-smoke:
	dune exec bin/themis_campaign_cli.exe -- run --preset mix --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset mix
	dune exec bench/workload_bench.exe -- --smoke --out _build/BENCH_workload.smoke.json

# Full streaming proof: 1M Poisson arrivals; memory must stay O(active).
workload-bench:
	dune exec bench/workload_bench.exe -- --out BENCH_workload.json

check: build build-flags test examples micro bench-engine-smoke bench-fwd-smoke fuzz-quick campaign-quick workload-smoke arena-smoke
	@echo "check: OK"

clean:
	dune clean
