# PADLL-Go build targets. Everything is plain `go` — this file only names
# the common invocations.

GO ?= go

.PHONY: all build test race flake fuzz-smoke bench bench-all bench-smoke bench-diff vet fmt lint ci count experiments tools clean

# Hot-path packages benchmarked by `make bench`: the data-plane fast
# path layer by layer (shim, stage, router, OS backend) plus the io/fs
# bridge (vfs/osfs bridge-vs-direct overhead).
BENCH_PKGS = ./internal/stage/... ./internal/metrics/... \
             ./internal/tokenbucket/... ./internal/policy/... \
             ./internal/interpose/... ./internal/mount/... \
             ./internal/osfs/... ./internal/vfs/...

# Same-run ns/op quotients `make bench-diff` checks on the fresh capture.
# Bridged vs direct: the interposition tax on a real directory. Parallel
# vs serial: an admit path that writes no shared cache line costs no more
# per call from GOMAXPROCS callers than from one — a quotient that holds
# on one core (time-slicing: ~1.0) as on many (~1/cores), so no gate
# depends on the box. The shaped pair still shares the bucket's critical
# section; its quotient is reported (<=inf), not gated. Shaped vs bare
# GetAttr: what the whole data plane (client, shim, a finite rule that
# never binds, router, localfs) adds to a request that does not wait:
# 1.3-1.9 (median 1.73) over nine -cpu=4 captures on the 2-core box, where
# both sides swing by a quarter; 1.8-2.3 with a per-request clock read and
# copy in the path. 2.0 clears every capture of this code (1.8 would have
# failed three) and is tighter than the median plus the bridge pairs'
# margin (+0.4) would be.
BENCH_RATIOS = BenchmarkOSBridgeStat-4/BenchmarkOSDirectStat-4<=1.6,$\
	BenchmarkDataPlaneShapedGetattr-4/BenchmarkDataPlaneBareGetattr-4<=2.0,$\
	BenchmarkOSBridgeWalkDir-4/BenchmarkOSDirectWalkDir-4<=1.6,$\
	BenchmarkOSBridgeReadFile-4/BenchmarkOSDirectReadFile-4<=1.6,$\
	BenchmarkStageEnforceParallel-4/BenchmarkStageEnforceSerial-4<=1.25,$\
	BenchmarkStageEnforcePassthroughMode-4/BenchmarkStageEnforcePassthroughModeSerial-4<=1.25,$\
	BenchmarkStageEnforceUnmatched-4/BenchmarkStageEnforceUnmatchedSerial-4<=1.25,$\
	BenchmarkStageEnforceShapedParallel-4/BenchmarkStageEnforceShapedSerial-4<=inf

# Control-plane packages benchmarked by `make bench` (the fleet feedback
# loop: batched wire protocol, delta collection, RunOnce at scale).
BENCH_CONTROL_PKGS = ./internal/control/... ./internal/rpcio/...

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Control-plane packages with the simulated cluster and the chaos
# scenarios that drive them, the rule classifier every request selects
# through (one frozen rule set read by many goroutines), the layers that
# forward a request in place (shim, router), and the PFS model with its
# namespace (pfs holds its own mutex around calls that take localfs's
# lock, and OST transfers wait outside both), under the race detector,
# twice: -count=2 defeats the test cache and shakes out order-dependent
# state, which is how the chaos determinism tests are meant to be run.
# The root package's registration tests join them: a data plane's
# registration, its re-registration loop and its heartbeat share the
# connection it registered on.
race:
	$(GO) test -race -count=2 ./internal/stage/... ./internal/policy/... ./internal/control/... ./internal/rpcio/... ./internal/tokenbucket/... \
		./internal/chaos/... ./internal/sim/... \
		./internal/mount/... ./internal/interpose/... ./internal/pfs/... ./internal/localfs/... ./internal/leaktest/...
	$(GO) test -race -count=2 -run 'OverNetwork|Heartbeat|Serve|Regist' .

# Flake hunt: the packages with wall-clock, socket or goroutine-order
# exposure — the control plane, every layer of the lock-free admit
# path, and the packages whose tests run on a simulated clock, the
# cluster simulator and the experiment goldens among them (their IOR and
# mdtest ranks run under clock.Sim.Drive) — ten times each at 1, 2 and
# 4 Ps. A test
# that only passes at the baseline box's core count or speed fails
# here, before it merges, instead of on the next machine it meets.
# The root package's Examples (simulated clock, checked output) run on a
# line of their own, so its command integration tests are not repeated;
# the testing package runs an Example once per binary whatever -count
# and -cpu say, so the loop repeats the run ten times at each P.
flake:
	$(GO) test -count=10 -cpu=1,2,4 ./internal/metrics/... ./internal/rpcio/... ./internal/control/... ./internal/chaos/... \
		./internal/stage/... ./internal/policy/... ./internal/tokenbucket/... ./internal/interpose/... ./internal/mount/... ./internal/osfs/... \
		./internal/clock/... ./internal/pfs/... ./internal/monitor/... ./internal/leaktest/... \
		./internal/sim/... ./internal/experiments/... ./internal/ior/... ./internal/mdtest/... ./internal/trace/...
	for p in 1 2 4; do for i in 1 2 3 4 5 6 7 8 9 10; do \
		$(GO) test -run '^Example' -count=1 -cpu=$$p . || exit 1; \
	done; done

# 10-second smoke run of each fuzz target (go allows one -fuzz per
# invocation). The checked-in corpora under testdata/fuzz replay on every
# plain `go test` already; this also exercises fresh mutations.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMatcher -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzTraceParse -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzPragmaParse -fuzztime 10s ./internal/lint/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpcio/

# Hot-path microbenchmarks at 1 and 4 simulated CPUs (no wider: on the
# two-vCPU baseline box a -cpu=8 column measures time-slicing, not
# scaling), then the control-plane fleet benchmarks; a per-benchmark summary of each run
# (fastest and slowest ns/op of the three samples, allocs/op, B/op and
# the custom units) lands in BENCH_stage.json / BENCH_control.json so
# runs can be diffed against the committed baselines. The fleet
# benchmarks are pinned to -cpu=1: they measure wall-clock rounds over
# live sockets, not CPU-parallel hot paths, and the pin keeps benchmark
# names free of a -N suffix, so the baseline compares on a host of any
# core count. -count=3 gives the baseline the same minimum-of-three
# estimate bench-diff uses on the fresh side, so the gate never compares
# against a single unlucky (or lucky) sample.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1,4 -count=3 -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -raw BENCH_stage.json
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1 -count=3 -json $(BENCH_CONTROL_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -raw BENCH_control.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Re-run the benchmarks and fail on regression in ns/op, allocs/op or
# wireB/round against the committed BENCH_control.json /
# BENCH_stage.json baselines (refresh with `make bench`). This is the
# tripwire that keeps the binary codec's wire wins and the alloc-free
# request path locked in. The deterministic units — allocs/op and
# wireB/round — are gated strictly at 15%, and a baseline of zero is a
# contract: BenchmarkFrameExchange (one steady-state collect over
# loopback TCP) and BenchmarkStageSetRate (the feedback loop's retune)
# allocate nothing, and one allocation in either fails the gate.
# Wall-clock ns/op swings tens of percent between steal/thermal windows
# on a shared box
# (-count=3 keeping the fastest run filters in-window noise, not
# cross-window drift), so cross-window ns/op is a
# catastrophic-regression tripwire at 50%, and the interposition-tax
# claims that actually matter are gated as SAME-RUN ratios — bridged
# vs direct ns/op from one capture window — which host-speed drift
# cancels out of. Steady-state ratios on an idle box are ~1.2x/1.2x/
# 1.1x (stat/walk/readfile); the limits leave noise margin while still
# catching any real regression, which costs microseconds, not percent.
bench-diff:
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1 -count=3 -json $(BENCH_CONTROL_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -diff BENCH_control.json -ns-tolerance 0.5
	$(GO) test -run='^$$' -bench=. -benchmem -count=3 -cpu=4 -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -diff BENCH_stage.json -ns-tolerance 0.5 \
			-ratio '$(BENCH_RATIOS)'

# One-iteration pass over every hot-path and control-plane benchmark:
# catches bitrot (compile errors, panics, b.Fatal) without paying for
# real measurement. The control benchmarks also run at two Ps, where a
# fleet of 64 or more stages splits its collect's scatter across
# goroutines; that column is smoke only, neither gated nor baselined.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS) > /dev/null
	$(GO) test -run='^$$' -bench=. -benchtime=1x -cpu=1,2 $(BENCH_CONTROL_PKGS) > /dev/null

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Run go vet plus the in-tree static-analysis suite (all five
# analyzers: clockcheck, lockcheck, errdrop, printcheck, leakcheck).
# Exits non-zero on any unsuppressed finding. What is checked at runtime
# is not linted: the wire schema (wire_registry_test.go round-trips every
# field through the codec), the zero-alloc request path (AllocsPerRun
# guards) and copy-on-write publication (-race tests).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/padll-lint ./...

# The full gate: formatting, vet, padll-lint, build,
# race-enabled tests, a plain-mode pass over the packages whose AllocsPerRun guards skip under -race (race
# instrumentation defeats escape analysis and randomizes sync.Pool, so
# alloc counts only mean anything uninstrumented), the doubled
# control-plane race pass, and a one-iteration benchmark smoke so the
# hot-path benches can't rot. The cross-builds compile the platform
# seams no native gate does: osfs's arm64 trap file, the stub that
# stands in for osfs off Linux, and rpcio's non-unix frame file, which
# only the windows build reaches (all offline, standard library only).
ci:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) lint
	$(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/osfs/...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	$(GO) test -race ./...
	$(GO) test ./internal/posix/... ./internal/vfs/... ./internal/stage/... ./internal/rpcio/... \
		./internal/tokenbucket/... ./internal/osfs/... ./internal/control/...
	$(MAKE) race
	$(MAKE) bench-smoke
	$(MAKE) bench-diff

# The size figures a surface-audit entry in CHANGES.md quotes: non-test
# lines outside bench/, exported functions and methods, With* options
# (under internal/ and padll.go), analyzers padll-lint runs — and the
# ones the control plane is tracked by: wire structs wireRegistry locks,
# wire call methods (live methodID constants), non-test lines of rpcio + control —
# the experiment harness's non-test lines, the simulated cluster's with
# its chaos scenarios, the stage's with the rule classifier it selects
# through, and the static-analysis
# suite's own weight: //lint: directives in non-test Go files outside
# internal/lint, and internal/lint's non-test lines.
SRC_FILES = find internal padll.go -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
count:
	@printf 'non-test lines outside bench/: %d\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'bench/ non-test lines: %d\n' \
		"$$(find bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'exported functions and methods: %d\n' \
		"$$($(SRC_FILES) | xargs grep -hE '^func (\([a-z]+ \*?[A-Za-z]+\) )?[A-Z]' | wc -l)"
	@printf 'With* options: %d\n' "$$($(SRC_FILES) | xargs grep -hE '^func With[A-Z]' | wc -l)"
	@printf 'analyzers: %d\n' "$$($(GO) run ./cmd/padll-lint -list | wc -l)"
	@printf 'wire structs (wireRegistry): %d\n' \
		"$$(awk '/^var wireRegistry/,/^}/' internal/rpcio/wire_registry_test.go | grep -cE '^\s+"[a-z]+\.[A-Z][A-Za-z]*": ')"
	@printf 'wire call methods (methodID constants): %d\n' \
		"$$(awk '/_ methodID = iota/,/^\)/' internal/rpcio/wirecodec.go | grep -cE '^\s+method[A-Z][A-Za-z]*$$')"
	@printf 'rpcio + control non-test lines: %d\n' \
		"$$(find internal/rpcio internal/control -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'rpcio + control interface types: %d\n' \
		"$$(find internal/rpcio internal/control -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE '^type [A-Za-z]+ interface')"
	@printf 'internal/experiments non-test lines: %d\n' \
		"$$(find internal/experiments -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/sim + internal/chaos non-test lines: %d\n' \
		"$$(find internal/sim internal/chaos -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/stage + internal/policy non-test lines: %d\n' \
		"$$(find internal/stage internal/policy -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '//lint: directives outside internal/lint: %d\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/*' | xargs grep -hE '//[[:space:]]*lint:' | wc -l)"
	@printf 'internal/lint non-test lines: %d\n' \
		"$$(find internal/lint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

# Regenerate every figure/table of the paper (tables printed to stdout,
# every plot table written under out/; all of it on simulated clocks, so
# out/ matches internal/experiments/testdata/golden).
experiments:
	$(GO) run ./cmd/padll-experiments -fig all -ext all -csv out

# Build all command-line tools into ./bin.
tools:
	@mkdir -p bin
	for t in padll-controller padll-ctl padll-replayer padll-ior \
	         padll-mdtest padll-tracegen padll-experiments padll-benchfmt; do \
		$(GO) build -o bin/$$t ./cmd/$$t; \
	done

clean:
	rm -rf bin out test_output.txt bench_output.txt
