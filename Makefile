# Mirrors .github/workflows/ci.yml so contributors run the exact CI
# commands locally. `make ci` is the whole pipeline.

GO ?= go

.PHONY: build test test-short alloc-gate bench bench-parallel bench-saturate bench-md bench-faults lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The CI fast lane: reduced-size (not skipped) tests under the race
# detector, vet and tests of the separate bench module, the allocation
# gate, a 10 s fuzz smoke holding inz.Size to the reference encoder, a
# 10 s fuzz smoke of fault-plan parsing and canonical forms, a 10 s fuzz
# smoke of the -shapes/-loads grid parsers, a 10 s fuzz smoke of the
# result cache's disk-entry decoder, plus the
# netsweep, saturate, faultsweep, MD timestep and mdsweep CLI
# smokes (each diffs sharded vs sequential output — shard-count invariance
# end to end; each sequential side passes -shards 1, because the default
# -shards 0 grants shards from idle cores; the faultsweep smoke pins a
# dead-link cell with rerouting live, the mdsweep smoke fences inside
# closed-loop MD steps), the fig9a
# and fig9b smokes (their per-size sub-jobs and reducers at -jobs 1 vs
# -jobs 2),
# the cache smoke (cold, warm and warm-sharded -cache runs byte-identical
# to uncached, warm run executing zero probes), and the telemetry smoke
# (-metrics output minus its 'telemetry' lines byte-identical to the
# plain run and to itself at -shards 2; -trace-events emits a valid
# Chrome trace-event document).
test-short:
	$(GO) test -short -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) alloc-gate
	$(GO) test -run '^$$' -fuzz '^FuzzSizeMatchesEncode$$' -fuzztime 10s ./internal/inz
	$(GO) test -run '^$$' -fuzz '^FuzzParseCanon$$' -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzParseGrid$$' -fuzztime 10s ./cmd/anton3
	$(GO) test -run '^$$' -fuzz '^FuzzGetEntry$$' -fuzztime 10s ./internal/resultstore
	$(GO) run ./cmd/anton3 netsweep -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -shards 1 > /tmp/anton3-ns-seq.txt
	$(GO) run ./cmd/anton3 netsweep -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -shards 2 > /tmp/anton3-ns-sh2.txt
	diff /tmp/anton3-ns-seq.txt /tmp/anton3-ns-sh2.txt
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -shards 1 > /tmp/anton3-sat-seq.txt
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -shards 2 > /tmp/anton3-sat-sh2.txt
	diff /tmp/anton3-sat-seq.txt /tmp/anton3-sat-sh2.txt
	$(GO) run ./cmd/anton3 faultsweep -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -faults "0,0,0:x+:dead" -q -shards 1 > /tmp/anton3-fault-seq.txt
	$(GO) run ./cmd/anton3 faultsweep -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -faults "0,0,0:x+:dead" -q -shards 2 > /tmp/anton3-fault-sh2.txt
	diff /tmp/anton3-fault-seq.txt /tmp/anton3-fault-sh2.txt
	$(GO) run ./cmd/anton3 fig12 -atoms 3000 -steps 2 -q -shards 1 > /tmp/anton3-md-seq.txt
	$(GO) run ./cmd/anton3 fig12 -atoms 3000 -steps 2 -q -shards 2 > /tmp/anton3-md-sh2.txt
	diff /tmp/anton3-md-seq.txt /tmp/anton3-md-sh2.txt
	$(GO) run ./cmd/anton3 mdsweep -mdatoms 2000 -mdsteps 1 -q -shards 1 > /tmp/anton3-mds-seq.txt
	$(GO) run ./cmd/anton3 mdsweep -mdatoms 2000 -mdsteps 1 -q -shards 2 > /tmp/anton3-mds-sh2.txt
	diff /tmp/anton3-mds-seq.txt /tmp/anton3-mds-sh2.txt
	$(GO) run ./cmd/anton3 fig9a -warm 0 -measure 1 -q -jobs 1 > /tmp/anton3-f9a-j1.txt
	$(GO) run ./cmd/anton3 fig9a -warm 0 -measure 1 -q -jobs 2 > /tmp/anton3-f9a-j2.txt
	diff /tmp/anton3-f9a-j1.txt /tmp/anton3-f9a-j2.txt
	$(GO) run ./cmd/anton3 fig9b -steps 1 -q -jobs 1 > /tmp/anton3-f9b-j1.txt
	$(GO) run ./cmd/anton3 fig9b -steps 1 -q -jobs 2 > /tmp/anton3-f9b-j2.txt
	diff /tmp/anton3-f9b-j1.txt /tmp/anton3-f9b-j2.txt
	@cdir=$$(mktemp -d); \
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -cache -cachedir "$$cdir" -json /tmp/anton3-sat-cold.json > /tmp/anton3-sat-cold.txt && \
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -cache -cachedir "$$cdir" -json /tmp/anton3-sat-warm.json > /tmp/anton3-sat-warm.txt && \
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -cache -cachedir "$$cdir" -shards 2 > /tmp/anton3-sat-warm2.txt && \
	diff /tmp/anton3-sat-seq.txt /tmp/anton3-sat-cold.txt && \
	diff /tmp/anton3-sat-seq.txt /tmp/anton3-sat-warm.txt && \
	diff /tmp/anton3-sat-seq.txt /tmp/anton3-sat-warm2.txt && \
	python3 -c "import json; c=json.load(open('/tmp/anton3-sat-cold.json'))['cache']; w=json.load(open('/tmp/anton3-sat-warm.json'))['cache']; assert c['misses']>0 and c['hits']==0, c; assert w['hits']>0 and w['misses']==0, w; print('cache smoke: cold', c, '-> warm', w)"
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -metrics -shards 1 > /tmp/anton3-sat-met.txt
	grep -v '^telemetry' /tmp/anton3-sat-met.txt | diff - /tmp/anton3-sat-seq.txt
	grep -q '^telemetry ' /tmp/anton3-sat-met.txt
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -metrics -shards 2 > /tmp/anton3-sat-met2.txt
	diff /tmp/anton3-sat-met.txt /tmp/anton3-sat-met2.txt
	$(GO) run ./cmd/anton3 saturate -shapes 2x2x2 -loads 0.5,2 -npkts 8 -nwarm 2 -q -trace-events /tmp/anton3-trace.json > /dev/null
	python3 -c "import json; ev=json.load(open('/tmp/anton3-trace.json'))['traceEvents']; assert any(e['ph']=='X' for e in ev), 'no slices'; print('trace smoke:', len(ev), 'events')"

# The allocation gate: testing.AllocsPerRun regression tests pinning the
# warm sim kernel (scheduling, Run and windowed RunUntil), the
# steady-state machine.Send (oblivious and adaptive routing), the synth
# harness inner loop, the closed-loop saturate point, the warm MD force
# pass and step, and the channel compression path (a warm INZ+pcache
# Compressor.Transmit and a warm traffic replay in every compression
# config) at 0 allocs/op, plus the MD timestep budget (allocs/step must
# not scale with atoms, with compression off and on). AllocsPerRun runs
# at GOMAXPROCS 1, where neither the MD force pass nor the traffic replay
# starts its helper goroutine, so TestComputeForcesTwoCoreAllocFree and
# TestReplayStepTwoCoreAllocFree count mallocs themselves at GOMAXPROCS
# 2. Run without -race: the detector's instrumentation allocates, so the
# tests skip themselves there.
alloc-gate:
	$(GO) test -run 'AllocFree|TimestepAllocBudget' -count=1 ./internal/sim ./internal/machine ./internal/synth ./internal/flow ./internal/md ./internal/serdes ./internal/traffic

# The CI bench lane: every paper artifact once, the hot-path micro-bench
# report (BENCH_hotpath.json: ns/op + allocs/op per PR, each bench run
# three times and folded by benchjson into its median, gated against the
# committed copy — a SendHotPath, Netsweep or KernelSteadyState median
# >10% slower fails the lane; a bench the committed copy lacks is not
# gated until a main-branch run adds its row), the shard-scaling, saturation,
# fault-degradation and MD reports (NetsweepShards, FaultKneeShift and the
# Forces32k/Step4k force kernel rows gated at the same 10%, the force rows
# also on the median of three runs; the shard and MD gates only on
# multicore hosts), then a full parallel `all` run
# refreshing BENCH_runner.json. The fresh hotpath JSON lands in a temp file first so
# the committed baseline survives a failed gate for diagnosis (and isn't
# truncated before benchjson reads it).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...
	$(GO) test -run '^$$' -bench 'SendHotPath|Netsweep$$|KernelSteadyState' -benchmem -count=3 ./internal/machine ./internal/synth ./internal/sim | $(GO) run ./cmd/benchjson -gate BENCH_hotpath.json -gate-bench SendHotPath,Netsweep,KernelSteadyState > BENCH_hotpath.json.tmp
	mv BENCH_hotpath.json.tmp BENCH_hotpath.json
	$(MAKE) bench-parallel
	$(MAKE) bench-saturate
	$(MAKE) bench-faults
	$(MAKE) bench-md
	$(GO) run ./cmd/anton3 all -json BENCH_runner.json > /dev/null

# The shard-scaling report: one 512-node netsweep point simulated at
# 1/2/4 kernel shards (byte-identical output, wall clock only). The
# shards=1 over shards=4 ns/op ratio in BENCH_parallel.json is the
# parallel-simulation speedup; meaningful only on a multicore runner,
# which is why CI's bench lane auto-commits the refreshed copy — and why
# a single-core host (the common dev container) writes its numbers to
# /tmp instead of clobbering the committed multicore baseline, and skips
# the gate (1-core ns/op against a multicore baseline is noise, not a
# regression signal). Multicore hosts gate NetsweepShards against the
# committed copy, same temp-file pattern as the hotpath lane.
bench-parallel:
	@ncpu=$$(getconf _NPROCESSORS_ONLN); \
	if [ "$$ncpu" -le 1 ]; then \
		echo "bench-parallel: 1-core host — writing /tmp/BENCH_parallel.json, keeping committed multicore baseline, skipping gate"; \
		$(GO) test -run '^$$' -bench 'NetsweepShards' -benchmem -count=1 -timeout 1800s ./internal/synth | $(GO) run ./cmd/benchjson > /tmp/BENCH_parallel.json; \
	else \
		$(GO) test -run '^$$' -bench 'NetsweepShards' -benchmem -count=1 -timeout 1800s ./internal/synth | $(GO) run ./cmd/benchjson -gate BENCH_parallel.json -gate-bench NetsweepShards > BENCH_parallel.json.tmp && \
		mv BENCH_parallel.json.tmp BENCH_parallel.json; \
	fi

# The saturation report: one closed-loop cell timing plus the per-policy
# saturation knees on the adversarial bit-complement pattern (reported as
# the knee_load custom metric, captured into the artifact's "extra" map).
# The knee SPREAD across policies is the head-of-line-blocking evidence
# the per-VC queue model exists to expose; it is committed per PR so the
# routing story is tracked over time like the perf numbers.
bench-saturate:
	$(GO) test -run '^$$' -bench 'SaturatePoint|SaturationKnee' -benchtime=1x -benchmem -count=1 -timeout 1800s ./internal/flow | $(GO) run ./cmd/benchjson > BENCH_saturation.json

# The fault-degradation report: per-policy bit-complement saturation knees
# under the drawn link-fault severity grid (degraded bandwidth, one dead
# link, four dead links, a directed plane cut), as knee metrics and shifts
# vs the healthy baseline. Committed per PR next to BENCH_saturation.json:
# the knees quantify graceful degradation, the shifts are the fault-aware
# rerouting story tracked over time. Gated like the hotpath lane: a
# FaultKneeShift slowdown >10% vs the committed baseline fails the run,
# and the fresh JSON lands in a temp file first so the baseline survives
# a failed gate for diagnosis.
bench-faults:
	$(GO) test -run '^$$' -bench 'FaultKneeShift' -benchtime=1x -benchmem -count=1 -timeout 1800s ./internal/flow | $(GO) run ./cmd/benchjson -gate BENCH_faults.json -gate-bench FaultKneeShift > BENCH_faults.json.tmp
	mv BENCH_faults.json.tmp BENCH_faults.json

# The MD timestep report: ns/step for one 8000-atom water cell at 1/2/4
# kernel shards (byte-identical results, wall clock only — the shards=1
# over shards=4 ratio is the MD speedup of the parallel executive), plus
# the closed-loop backpressure rows: simulated step duration and parked
# injection counts per queue depth, the MD-traffic counterpart of the
# synthetic knees in BENCH_saturation.json, and the MD force kernel rows
# (Forces32k, Step4k) with their ns/pair. The shard and backpressure
# rows run once; the force kernel rows run three times each, and
# benchjson folds the three lines of a row into their median. Like
# bench-parallel, a single-core host writes to /tmp so its shard timings
# never overwrite the committed multicore artifact, and skips the gate.
# Multicore hosts gate the force kernel rows, Forces32k and Step4k, on
# that median, >10% against the committed copy, same temp-file pattern
# as the hotpath lane; a row the committed copy lacks is not gated until
# a main-branch run adds it.
BENCH_MD_RUNS = { $(GO) test -run '^$$' -bench 'TimestepShards|MDBackpressure' -benchmem -count=1 -timeout 1800s ./internal/machine; \
	$(GO) test -run '^$$' -bench 'Forces32k|Step4k' -benchmem -count=3 -timeout 1800s ./internal/md; }

bench-md:
	@ncpu=$$(getconf _NPROCESSORS_ONLN); \
	if [ "$$ncpu" -le 1 ]; then \
		echo "bench-md: 1-core host — writing /tmp/BENCH_md.json, keeping committed multicore baseline, skipping gate"; \
		$(BENCH_MD_RUNS) | $(GO) run ./cmd/benchjson > /tmp/BENCH_md.json; \
	else \
		$(BENCH_MD_RUNS) | $(GO) run ./cmd/benchjson -gate BENCH_md.json -gate-bench Forces32k,Step4k > BENCH_md.json.tmp && \
		mv BENCH_md.json.tmp BENCH_md.json; \
	fi

# staticcheck runs when installed (CI installs it; the target stays green
# on machines without it rather than failing or fetching a dependency).
# Every workflow file must parse as YAML: GitHub runs nothing from a file
# it cannot parse, and says so only on the Actions page. The check needs
# PyYAML and is skipped, like staticcheck, where it is missing.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi
	@if python3 -c 'import yaml' >/dev/null 2>&1; then \
		python3 -c 'import glob, sys, yaml; sys.tracebacklimit = 0; fs = sorted(glob.glob(".github/workflows/*.yml")); [yaml.safe_load(open(f)) for f in fs]; print("lint: workflow YAML parses:", *fs)'; \
		else echo "lint: PyYAML not installed, skipping the workflow YAML check"; fi

ci: lint build test-short bench
