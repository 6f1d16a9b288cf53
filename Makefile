# Developer entry points. `make check` is the tier-1.5 gate, defined here
# once: scripts/check.sh execs it and CI runs its targets step by step.

GO ?= go

.PHONY: build vet fmt test race check simtest cluster crash stream bench bench-smoke bench-pair report staticcheck loc

# Optional deeper linting: runs only when staticcheck is installed, so the
# gate works on minimal toolchains (CI installs it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

build:
	$(GO) build ./...

# go vet, plus one import rule: the protocol state machines read no wall
# clock (timing an uplink is its transport's job), so no non-test file of
# internal/core may import time.
vet:
	$(GO) vet ./...
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/core | grep -qx time; then \
		echo "internal/core imports time: core must read no wall clock"; exit 1; fi

# Fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Non-test Go lines in the repo: the size figure simplicity changes report.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1

# The router, the simulator's parallel client phases (Config.Parallelism),
# the set cover's concurrent-use test, the remote transport and the metrics
# registry are the packages with real concurrency; run them under -race.
race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/network/... ./internal/remote/... ./internal/obs/... ./internal/cluster/... ./internal/history/...

# Differential simulation sweep under the race detector — including one
# fault-injection seed with causal tracing enabled (TestTracedFaultInjection),
# so trace propagation stays race-clean on the faulty transport — plus a
# short fuzz smoke of the wire codec and the remote frame reader (the two
# trust boundaries for peer-supplied bytes), of the mobility-trace file
# reader, of snapshot restore (serial and a 2-node router), of the query
# lifecycle (serial against a 2-node router), of the ops and handoffs a
# cluster worker accepts from its router port, of the debug views' filter
# parser (admin words and URL queries), and of the admin command dispatch
# on a live server. The remote handshake tests (what an object misses while
# away and what its next session delivers, in the encoding its hello version
# names) run twenty times under -race, so a reordering that shows once in
# twenty runs fails here instead of merging as a flake. CI runs this next to
# the race gate.
simtest:
	$(GO) test -race -count=1 ./internal/simtest/
	$(GO) test -race -count=20 -run 'Handshake|Resync|Parked|Version' ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzWire$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzAdminCommand$$' -fuzztime 10s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzQueryLifecycle$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerOps$$' -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzViewArgs$$' -fuzztime 10s ./internal/obs/

# Cluster gate: the differential oracle (serial vs the router over
# in-process nodes, byte-identical snapshots and cost ledgers) over the
# seeded sweeps — including node kill, cell-range rebalancing and
# cross-node handoff under injected frame faults — plus the wire-tier
# cluster package itself, all under the race detector. The -list line
# fails the gate when the -run pattern no longer matches the sweep, so a
# rename cannot make the gate pass vacuously.
cluster:
	$(GO) test -race -list 'Cluster' ./internal/simtest/ | grep -qx TestClusterLockstepSweep
	$(GO) test -race -count=1 -run 'Cluster' ./internal/simtest/
	$(GO) test -race -count=1 ./internal/cluster/

# Crash-recovery gate: the seeded crash-schedule sweep (ungraceful kills,
# mid-handoff kills, double kills, kills at rebalance edges) plus the
# checkpoint/replay unit and teeth tests, under the race detector. On
# failure the sweep shrinks the first violation to a minimal repro and, when
# CRASH_REPRO_OUT names a file, writes it there (CI uploads it). The -list
# line fails the gate when -run no longer matches the handoff-barrier test.
crash:
	$(GO) test -list 'Checkpoint' ./internal/core/ | grep -qx TestCheckpointBarrierAfterInOpWrites
	$(GO) test -race -count=1 -run 'Crash|Checkpoint|Recovery' ./internal/simtest/ ./internal/core/ ./internal/cluster/ ./internal/obs/telemetry/

# Stream & history gate: snapshot-then-delta gap-freeness and ground truth
# across the serial server and the router over four and over three nodes,
# slow-consumer eviction under a deliberately stalled reader, the history
# log codec and bounded store, the remote SSE/admin wiring, and the
# simtest replay oracle (log vs live-subscription ground truth), under the
# race detector (see internal/obs/stream, internal/history, DESIGN.md §17).
# The -list line fails the gate when -run no longer matches the remote
# stream-and-history test.
stream:
	$(GO) test -list 'Stream|History|AdminSubHist|Gateway' ./internal/remote/ | grep -qx TestRemoteStreamAndHistory
	$(GO) test -race -count=1 ./internal/obs/stream/ ./internal/history/
	$(GO) test -race -count=1 -run 'Stream|History|AdminSubHist|Gateway' ./internal/remote/ ./internal/simtest/

check: build vet fmt staticcheck test race simtest cluster crash stream bench-smoke

bench:
	$(GO) test -bench . -benchtime 1s ./internal/core/

# One iteration of every benchmark in the repo: catches benchmarks that
# no longer compile or panic, without the cost of real measurement. The
# measurements themselves are `bash benchmark/run.sh` (BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Paired parent/change benchmark runs — how a performance claim is measured
# (ROADMAP ground rules, EXPERIMENTS.md "Paired benchmark runs"). PARENT and
# CHANGE are git refs or checkout directories:
#   make bench-pair PARENT=HEAD~1 CHANGE=HEAD ARGS='--workload cluster_focal'
PARENT ?= HEAD~1
CHANGE ?= HEAD
bench-pair:
	scripts/bench_pair.sh $(PARENT) $(CHANGE) $(ARGS)

# The structured §5 cost & accuracy report (ledger sweeps, EQP-vs-LQP
# quality, baselines, qualitative checks) → results/runreport.{json,txt}.
# Exits non-zero if a qualitative check fails.
report:
	$(GO) run ./cmd/experiments -exp report -steps 10 -warmup 3 -report-dir results
