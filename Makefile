GO ?= go

.PHONY: all build test race race-hedge bench bench-test bench-e2e ci fmt vet staticcheck tables tables-check chirond fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hedge repeats the tests that share a pooled hedge run between the
# caller and the hedge's timer goroutine, so the race detector sees many
# interleavings of that hand-off, not one. The pattern also repeats
# TestHedgeCutsP99 (p99 off/on >= 2x at <= 10% hedges, ~3 s a run).
race-hedge:
	$(GO) test -race -count=10 -run 'Hedge|Deadline|Program' ./internal/serve

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# chirond builds the serving daemon. TestDaemonSmoke (./cmd/chirond,
# part of test and race) boots it in-process and drives it end to end.
chirond:
	$(GO) build -o bin/chirond ./cmd/chirond

# fuzz runs the UDP packet-parser fuzzer for a fixed iteration budget
# (the same budget CI runs); FUZZ_TIME accepts Nx or a duration.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseHeader -fuzztime=$(FUZZ_TIME) ./internal/udp/

# tables regenerates every figure/table into results/.
tables:
	$(GO) run ./cmd/chiron-bench -out results
	$(GO) run ./cmd/chiron-bench -exp ablations -out results

# tables-check regenerates results/ and fails if a committed table moved:
# the committed files are the digest. A change that means to move a paper
# number commits the regenerated files and says why.
tables-check: tables
	git diff --exit-code -- results/

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

# ci is the full gate: formatting, static analysis, the committed paper
# tables, race-enabled tests (the hedge hand-off repeated), and the
# benchmark harness's own tests.
ci: fmt vet staticcheck tables-check race race-hedge bench-test
