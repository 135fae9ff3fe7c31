# SimFS build entry points. CI (.github/workflows/ci.yml) invokes these
# same targets, so a green `make check` locally means a green pipeline.

GO ?= go

.PHONY: all build test test-short test-race sched-golden bench bench-smoke bench-selftest bench-gate pairs benchstat profile-hit profile-miss proto-fuzz chaos-smoke fed-smoke loc lint fmt vet simfs-vet dead-ops staticcheck govulncheck check clean

all: build

build:
	$(GO) build ./...

# test runs the full suite (the experiments package replays the paper's
# figures and takes ~20 s); test-short gates those behind -short.
test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-race is the concurrency gate: the sharded Virtualizer stress
# tests run under the race detector.
test-race:
	$(GO) test -race ./...

# sched-golden runs the scheduler's goldens, which -short skips: the
# seeded queue trace, the seed tables and the scheduler and preemption
# ablations, DRR under client skew (TestAblationPreemptDRRUnderSkew)
# among them (~3 s). CI's quick job runs it beside the short suite.
sched-golden:
	$(GO) test -count=1 -run '^TestQueueTrace$$' ./internal/sched
	$(GO) test -count=1 -run '^(TestSchedulerPreservesSeedTables|TestAblationScheduler.*|TestAblationPreempt.*)$$' ./internal/experiments

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs every benchmark exactly once; CI uses it to catch
# benchmarks that stop compiling or start failing, in seconds. The ./...
# sweep includes the scheduler's BenchmarkSchedulerLaunchStorm and
# BenchmarkSchedulerPreemptStorm (internal/sched; the preempt-free fast
# path is pinned at 0 allocs/op by TestPreemptFreeFastPathNoAllocs) and
# the RunCells-based multi-client stress benches, and the root package's
# BenchmarkPolicyAtCapacity (every replacement scheme with the cache full
# and nearly every access an eviction) and the two loops the profile
# targets below profile, BenchmarkProtocolPipelined and BenchmarkMissLoop.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# bench-selftest vets and self-tests the BENCHMARK.json harness. It is a
# module of its own (simfs/benchmark, importing simfs/internal/... via a
# replace), so the root `./...` sweeps never load it: without this
# target an internal API rename breaks the benchmark unseen. ~4 s.
bench-selftest:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# bench-gate runs the four BENCHMARK.json workloads for 5 s each (~40 s
# in all) and fails when any operation failed or allocs_per_op exceeds
# its ceiling. allocs_per_op is the one end-to-end metric that repeats
# to four digits on any machine, so it can gate without a baseline run;
# the timing metrics still need the alternating pairs of
# benchmark/README.md (make pairs). Each ceiling is the median of the
# change that last moved it plus BENCHMARK.json's 2 % bound — lower it
# with the change that earns it, and raise it only with a CHANGES.md
# entry saying what the allocations bought.
BENCH_GATE ?= hit_pipelined:2.073 hit_routed_sync:0.0324 miss_resim:5.057 des_multi:3.26
bench-gate:
	@for gate in $(BENCH_GATE); do \
		w=$${gate%%:*}; ceiling=$${gate##*:}; \
		line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1) || exit 1; \
		failed=$$(printf '%s' "$$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p'); \
		allocs=$$(printf '%s' "$$line" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.eE+-]*\).*/\1/p'); \
		if [ -z "$$failed" ] || [ -z "$$allocs" ]; then echo "bench-gate: $$w: no result line: $$line"; exit 1; fi; \
		echo "bench-gate: $$w failed=$$failed allocs_per_op=$$allocs (ceiling $$ceiling)"; \
		if [ "$$failed" -gt 0 ]; then echo "bench-gate: $$w: $$failed operations failed"; exit 1; fi; \
		if ! awk -v a="$$allocs" -v c="$$ceiling" 'BEGIN { exit !(a <= c) }'; then \
			echo "bench-gate: $$w: allocs_per_op $$allocs exceeds $$ceiling"; exit 1; fi; \
	done

# pairs runs alternating parent/change pairs of the BENCHMARK.json
# workloads — N pairs of SECONDS-long runs per workload, the side that
# goes first swapping each pair — and prints, per end-to-end metric, the
# quartiles of both sides and the head's win count (pairs.sh). BASE and
# HEAD are revisions; only committed files are measured.
N ?= 10
SECONDS ?= 5
WORKLOADS ?=
HEAD ?= HEAD
pairs:
	@[ -n "$(BASE)" ] || { echo "usage: make pairs BASE=<rev> [HEAD=<rev>] [N=10] [WORKLOADS=...] [SECONDS=5]"; exit 2; }
	bash pairs.sh -n $(N) -s $(SECONDS) -w "$(WORKLOADS)" $(BASE) $(HEAD)

# benchstat saves benchstat-comparable output. First run: the result is
# copied to bench-before.txt as the baseline. Later runs write
# bench-after.txt and, if benchstat is installed, print the comparison.
# Narrow the set with BENCH='BenchmarkReplayECMWF|BenchmarkDESEngine'.
BENCH ?= .
benchstat:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count 6 . > bench-after.txt || { cat bench-after.txt; rm -f bench-after.txt; exit 1; }
	@cat bench-after.txt
	@if [ ! -f bench-before.txt ]; then \
		cp bench-after.txt bench-before.txt; \
		echo "saved baseline to bench-before.txt"; \
	elif command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-before.txt bench-after.txt; \
	else \
		echo "bench-after.txt saved; install benchstat (golang.org/x/perf) to compare against bench-before.txt"; \
	fi

# profile-hit profiles the warm-hit round trip the hit_pipelined workload
# drives — windows of 16 pipelined opens and releases of resident files
# over loopback TCP (BenchmarkProtocolPipelined) — and prints the
# profile's cumulative top. The profile stays in .bench_build/hit.prof
# for `go tool pprof`.
profile-hit:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkProtocolPipelined$$' -benchtime 3s -benchmem -cpuprofile .bench_build/hit.prof -o .bench_build/simfs.test .
	$(GO) tool pprof -top -cum .bench_build/simfs.test .bench_build/hit.prof | head -n 40

# profile-miss is profile-hit for the read of a missing file the
# miss_resim workload drives — open (a miss), the wait on its notice and
# the release, each on a fresh restart interval, against an in-memory
# storage area (BenchmarkMissLoop). The profile stays in
# .bench_build/miss.prof.
profile-miss:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkMissLoop$$' -benchtime 3s -benchmem -cpuprofile .bench_build/miss.prof -o .bench_build/simfs.test .
	$(GO) tool pprof -top -cum .bench_build/simfs.test .bench_build/miss.prof | head -n 40

# proto-fuzz runs the wire-protocol fuzzers (one per frame codec) over
# their committed seed corpora plus FUZZTIME of random exploration each
# (CI smokes them at 10s; crank FUZZTIME up locally after protocol
# changes). Regenerate the seed corpora with SIMFS_REGEN_CORPUS=1 go
# test ./internal/netproto -run TestRegenerateFuzzCorpus after adding
# ops or payloads.
FUZZTIME ?= 10s
proto-fuzz:
	$(GO) test ./internal/netproto -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netproto -run '^$$' -fuzz '^FuzzBinaryFrame$$' -fuzztime $(FUZZTIME)

# chaos-smoke runs the fault-tolerance gate under the race detector: the
# seeded chaos schedules (storage faults, simulation crash plans,
# connection cuts) through the contended multi-client workload, the
# daemon kill-and-restart ride-through, the client reconnect suite, and
# the launcher's tests ten times over (a launcher race shows up once in
# thousands of runs, and the storm alone runs 11k), the readiness
# stream and open-notice contracts ten times over with the stream
# withdrawal races (a stream's frames and its end race the hub's
# callbacks on the session's pusher), and the client's call state
# machine ten times over with the reconnect suite (a call's answer, its
# Wait and the reconnect sweep race for who moves second; every
# TestReconnect* test, the exactly-once cut at each request of a
# pipelined window against a real daemon among them), the daemon's
# refusal of a double release, and the call record recycling tests (a
# second Wait, and records a canceled context or the sweep left
# unsettled, which the pool must never hand out), and core's failure
# ledger ten times over: the retry and quarantine tests and the
# invariant fuzz, whose seeds half install a retry policy (400 seeds
# auditing the in-hold relaunch after every operation), with core's
# kill-window tests (a late open after a cancellation or a preemption
# kill, and a wall-clock run killed mid-write).
chaos-smoke:
	$(GO) test -race -count=10 -run 'Launcher' ./internal/simulator
	$(GO) test -race -count=10 -run 'TestInvariantsUnderRandomWorkload|TestRetry|TestQuarantine|TestOpenAfterCancelKillIsServed|TestPreemptWindowOpenJoinsRequeuedJob|TestKillMidWriteServesLateWaiter' ./internal/core
	$(GO) test -race -count=10 -run 'TestWatchContract|TestOpenNoticeContract|TestStreamWithdrawal' ./internal/server
	$(GO) test -race -run 'TestChaosWorkloadUnderFaults|TestDaemonRestartMidWorkload|TestCloseDrainsPendingWaiters' ./internal/server
	$(GO) test -race -count=10 -run 'TestReconnect|TestDoubleReleaseRefused|TestCallStateMachine|TestSecondWaitRefused|TestCanceledCallKeepsItsRecord|TestSweptCallKeepsItsRecord' ./internal/dvlib
	$(GO) test -race ./internal/faults

# fed-smoke is the federation gate under the race detector, the whole
# of internal/fed: router proxying across sharded daemons, dead-peer
# isolation, a member link failing on an undecodable response, unknown
# ops refused like a daemon refuses them, byte-transparent relaying, the
# fan-out of the ops no member owns (and its call timeout), and
# reconnecting clients riding through a router restart.
fed-smoke:
	$(GO) test -race -count=1 ./internal/fed

# loc prints the two sizes ROADMAP's north star tracks: non-test Go lines
# outside benchmark/ (its own module) and testdata/ (analyzer fixtures),
# and the scheduler's knob count; then the first of them per package
# directory, sorted by directory.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l | xargs echo "non-test Go lines outside benchmark/ and testdata/:"
	@awk '/^type Config struct/ {in_cfg=1; next} in_cfg && /^}/ {exit} in_cfg && /^\t[A-Z]/ {n++} END {print "sched.Config fields:", n}' internal/sched/config.go
	@echo "non-test Go lines by package:"
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | \
		sort -k2

lint: fmt vet simfs-vet dead-ops staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet stays stock `go vet` so the quick edit-compile loop never pays
# simfs-vet's full load-and-typecheck pass; the custom analyzers gate
# lint/check/CI instead.
vet:
	$(GO) vet ./...

# simfs-vet runs the repo's own invariant analyzers (determinism,
# fieldsync, lockorder, errcode — see DESIGN.md and cmd/simfs-vet).
# The tree must stay finding-free; intentional sites carry
# //simfs:allow <check> <reason> annotations.
simfs-vet:
	$(GO) run ./cmd/simfs-vet ./...

# dead-ops fails when a wire op has no sender: every Op* constant of
# internal/netproto/netproto.go must be referenced from non-test code
# outside internal/netproto (which defines it) and internal/server (which
# serves it) — by dvlib, fed, a command, an example or the benchmark.
# hello is exempt: netproto.Dial sends it itself. An op that fails here
# is a handler, an opcode, an op-table row, a latency bucket and fuzz
# seeds kept alive for nobody (`wait` was, for 23 PRs): retire it.
# It also fails when non-test code outside benchmark/ names the Codec
# seam (netproto.JSON/Binary/Codec): every connection speaks one codec,
# and the seam lives on only for tests, fuzzers and the codec drill. And
# it fails when non-test code outside internal/notify and benchmark/
# names notify.Sub: every waiter in the daemon is a callback, and the
# channel adapter lives on only for tests and the hub drills. Last, it
# runs the reachability gate (TestReachability in internal/analysis):
# every exported function and method of a non-main package must be
# reached from a main package, the simfs facade or benchmark/, or sit
# on the gate's allowlist of test seams with its reason.
dead-ops:
	@dead=; for op in $$(sed -n 's/^\t\(Op[A-Za-z]*\) *= *".*/\1/p' internal/netproto/netproto.go); do \
		[ "$$op" = OpHello ] && continue; \
		git grep -qw "netproto\.$$op" -- '*.go' ':!*_test.go' ':!internal/netproto' ':!internal/server' || dead="$$dead $$op"; \
	done; \
	if [ -n "$$dead" ]; then echo "dead-ops: no sender outside internal/netproto and internal/server for:$$dead"; exit 1; fi; \
	echo "dead-ops: every wire op has a sender"
	@seam=$$(git grep -nw 'netproto\.\(JSON\|Binary\|Codec\)' -- '*.go' ':!*_test.go' ':!benchmark'); \
	if [ -n "$$seam" ]; then echo "dead-ops: the Codec seam has production callers:"; echo "$$seam"; exit 1; fi; \
	echo "dead-ops: no production caller of the Codec seam"
	@sub=$$(git grep -nw 'notify\.Sub' -- '*.go' ':!*_test.go' ':!internal/notify' ':!benchmark'); \
	if [ -n "$$sub" ]; then echo "dead-ops: notify.Sub has production callers:"; echo "$$sub"; exit 1; fi; \
	echo "dead-ops: no production caller of notify.Sub"
	$(GO) test -count=1 -run '^TestReachability$$' ./internal/analysis

# staticcheck and govulncheck are pinned and fetched on demand via `go
# run tool@version`, so they add no go.mod dependency. The -version
# probe doubles as an availability check: offline (no cached module,
# no proxy) it fails and the step degrades to a skip instead of
# breaking lint on air-gapped machines. When the probe passes, the
# real run's exit status gates lint as usual.
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: tool unavailable (offline?); skipping"; \
	fi

GOVULNCHECK_VERSION ?= v1.1.4
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "govulncheck: tool unavailable (offline?); skipping"; \
	fi

# check is the full local gate: what CI runs, in one target.
check: build lint test-short test-race bench-selftest bench-gate

clean:
	$(GO) clean ./...
