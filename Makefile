# Tier-1 verification plus the race detector and the paperbench smoke.
#
#   make check       vet + build + race-enabled tests (the pre-commit gate)
#   make lint        go vet plus staticcheck when installed, else a gofmt -l
#                    formatting gate (no new tool dependencies)
#   make smoke       regenerate the quick paperbench report and diff against
#                    the committed paperbench_quick.txt (slow: full quick
#                    set), then run short static and dynamic fault campaigns, the
#                    crash-safe daemon recovery stage, and the chaos campaign
#   make fuzz-smoke  ~10s of native fuzzing per fuzz target, minimization
#                    bounded to 100 execs per new input; fails a target
#                    that runs fewer execs than the floor its line states
#   make trace-smoke instrumented quickstart run; obscheck validates the
#                    -metrics and -trace artifacts it produces
#   make bench       compression + artifact micro-benchmarks with allocation
#                    counts (AppendCompress/DecompressInto must show 0 allocs/op;
#                    nil-instrumentation obs paths must show 0 allocs/op), plus
#                    the lazy-store read path; end-to-end throughput is
#                    perfbench's job (perfbench/README.md)
#   make ci          everything

GO ?= go
FUZZTIME ?= 10s
# A new-coverage input is minimized for at most 100 execs (Go's default
# is 60s), so no target spends its FUZZTIME window minimizing.
FUZZ = -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

.PHONY: check lint vet build test smoke fuzz-smoke trace-smoke bench ptmcd ci

check: vet build test

vet:
	$(GO) vet ./...

# lint prefers staticcheck when the host has it; otherwise it degrades to
# the formatting gate every Go install ships with. Either way it is a
# hard failure, wired into the smoke pipeline.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "lint: staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; gofmt -l gate"; \
		out="$$(gofmt -l .)"; \
		if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi; \
	fi

# ptmcd builds the crash-safe simulation daemon (see README "Running the
# service").
ptmcd:
	$(GO) build -o bin/ptmcd ./cmd/ptmcd

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

smoke:
	./scripts/smoke.sh

# Each line names a package, a target and its exec floor: the recipe
# fails when the target's last "fuzz: elapsed: ..., execs: N" line
# reports fewer than the floor, since a target that does almost no work
# in its window fuzzes nothing. The floors are exec counts for the
# default FUZZTIME=10s window (about half the lowest of five fresh-corpus
# windows on a 2-vCPU host); a shorter FUZZTIME fails them by design.
fuzz-smoke:
	@for t in \
		"./internal/core/ FuzzMarkerClassify 260000" \
		"./internal/server/ FuzzJobSpec 32000" \
		"./internal/server/ FuzzWALReplay 10000" \
		"./internal/mem/ FuzzStore 29000" \
		"./internal/memctrl/ FuzzControllerOps 550"; do \
		set -- $$t; \
		echo "$(GO) test $$1 -run $$2 -fuzz $$2 $(FUZZ)"; \
		out=$$($(GO) test $$1 -run $$2 -fuzz $$2 $(FUZZ) 2>&1); st=$$?; \
		printf "%s\n" "$$out"; \
		[ $$st -eq 0 ] || exit $$st; \
		n=$$(printf "%s\n" "$$out" | sed -n 's/^fuzz: elapsed: .*, execs: \([0-9]*\) .*/\1/p' | tail -n 1); \
		if [ "$${n:-0}" -lt $$3 ]; then \
			echo "fuzz-smoke: $$2 ran $${n:-0} execs, below its floor of $$3" >&2; exit 1; \
		fi; \
	done

trace-smoke:
	out=$$(mktemp -d) && \
	$(GO) run ./cmd/ptmcsim -workload lbm06 -scheme dynamic-ptmc \
		-insts 60000 -warmup 60000 \
		-metrics "$$out/m.json" -trace "$$out/t.trace" > /dev/null && \
	$(GO) run ./cmd/obscheck -trace "$$out/t.trace" -metrics "$$out/m.json"; \
	st=$$?; rm -rf "$$out"; exit $$st

bench:
	$(GO) test -run xxx -bench 'AppendCompress|DecompressInto' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkNil' -benchmem ./internal/obs/
	$(GO) test -run xxx -bench 'BenchmarkPTMCReadMiss' -benchmem ./internal/memctrl/
	$(GO) test -run xxx -bench 'BenchmarkStoreLazyRead' -benchmem ./internal/mem/

ci: check fuzz-smoke smoke
