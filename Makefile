GO ?= go

.PHONY: all build test race race-hedge bench bench-baseline bench-compare cache-bench bench-test bench-e2e ci fmt vet staticcheck tables chirond serve-smoke obs-smoke soak udp-soak fuzz

# Benchmark regression rails: bench-baseline runs the figure/table suite
# with -benchmem and records it as $(BENCH_JSON) (ns/op, allocs/op and the
# plans_per_sec planner-throughput metric, plus a run manifest);
# bench-compare re-runs the suite and fails on >10% ns/op regressions
# against that baseline. Both run each benchmark $(BENCH_COUNT) times and
# benchjson keeps the fastest repetition — at a 20x iteration budget the
# sub-ms benchmarks are otherwise pure scheduler noise and back-to-back
# identical runs trip the 10% gate.
BENCH_JSON    ?= BENCH_pr10.json
BENCH_PATTERN ?= ^(BenchmarkFig|BenchmarkTable|BenchmarkGateway|BenchmarkUDP|BenchmarkCache)
BENCH_TIME    ?= 20x
BENCH_COUNT   ?= 5
# The hedging rail drives 200 wall-clock requests per iteration (nominal
# time, no compression — see BenchmarkHedgedInvoke), so it gets a small
# separate iteration budget instead of the 20x the sub-ms rails need.
HEDGE_BENCH_TIME  ?= 3x
HEDGE_BENCH_COUNT ?= 2

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hedge repeats the tests that share a pooled hedge run between the
# caller and the hedge's timer goroutine, so the race detector sees many
# interleavings of that hand-off, not one.
race-hedge:
	$(GO) test -race -count=10 -run 'Hedge|Deadline|Program' ./internal/serve

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

bench-baseline:
	( $(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkHedgedInvoke$$' -benchmem -benchtime=$(HEDGE_BENCH_TIME) -count=$(HEDGE_BENCH_COUNT) . ) \
		| $(GO) run ./cmd/benchjson -label baseline -out $(BENCH_JSON)
	@echo "baseline written to $(BENCH_JSON)"

bench-compare:
	( $(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkHedgedInvoke$$' -benchmem -benchtime=$(HEDGE_BENCH_TIME) -count=$(HEDGE_BENCH_COUNT) . ) \
		| $(GO) run ./cmd/benchjson -label current -out /tmp/bench-current.json
	$(GO) run ./cmd/benchjson -compare -threshold 0.10 $(BENCH_JSON) /tmp/bench-current.json

# cache-bench runs just the cache policy rails (hit-heavy, scan-flood,
# serve traffic mix, stampede) with the hit_rate / loads-per-op columns
# the per-cache policy defaults were picked from (see DESIGN.md §12).
cache-bench:
	$(GO) test -run='^$$' -bench='^BenchmarkCache' -benchmem -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) .

# chirond builds the serving daemon; serve-smoke boots it on an
# ephemeral port, drives 200 invocations of the SocialNetwork workload
# against itself (closed loop, 8 workers), and exits cleanly.
chirond:
	$(GO) build -o bin/chirond ./cmd/chirond

serve-smoke: chirond
	./bin/chirond -addr 127.0.0.1:0 -scale 0.01 -preload SocialNetwork -plan \
		-selfbench 200 -selfbench-conc 8

# obs-smoke black-box tests the observability plane: boot chirond with
# an impossible 1ms SLO, drive 200 violating invocations, then require
# a strict-parsing /metrics with a tripped burn alert, an slo-tagged
# trace in /debug/flight, and that trace fetchable as Chrome JSON.
obs-smoke: chirond
	./scripts/obs_smoke.sh

soak:
	$(GO) build -o bin/soak ./cmd/soak

# udp-soak black-box tests the binary ingress plane: boot chirond with
# -udp, drive it closed-loop for a few seconds, require zero dropped
# completions, a still-zero packets-filtered counter (a healthy client
# never emits a malformed datagram) and a clean SIGTERM drain.
udp-soak: chirond soak
	./scripts/udp_soak.sh

# fuzz runs the UDP packet-parser fuzzer for a fixed iteration budget
# (the same budget CI runs); FUZZ_TIME accepts Nx or a duration.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseHeader -fuzztime=$(FUZZ_TIME) ./internal/udp/

# tables regenerates every figure/table into results/.
tables:
	$(GO) run ./cmd/chiron-bench -out results
	$(GO) run ./cmd/chiron-bench -exp ablations -out results

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck catches the reinvented-stdlib class of bug (e.g. the
# hand-rolled insertion sort that sort.Strings replaced) plus dead code
# and misuse vet misses. The binary is optional locally; CI installs it,
# and runs without it just skip with a notice.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench/ is a Go module of its own (the end-to-end benchmark BENCHMARK.json
# declares), so ./... above does not reach it. bench-test runs its tests
# (~4 s); bench-e2e runs the benchmark itself, every workload in a fresh
# process (ARGS passes flags, e.g. ARGS="-workload null_udp -seconds 5").
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	bash bench/run.sh $(ARGS)

# ci is the full gate: formatting, static analysis, race-enabled tests
# (the hedge hand-off repeated), and the benchmark harness's own tests.
ci: fmt vet staticcheck race race-hedge bench-test
