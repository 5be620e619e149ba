# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; the targets here exist so the local invocations and the
# gate's inputs cannot drift apart.

.PHONY: build test race e2e check bench-gate bench-baseline

# The bench-gate benchmark set, declared once: bench-gate runs it and
# bench-baseline records it.
BENCH_SET := SRSP|SingleSource|SamplingV2|ApplyUpdates

# The commit bench-gate benchmarks the working tree against. CI passes
# the pull request's base; locally the working tree runs against its
# last commit.
BASE ?= HEAD

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/core ./internal/parallel ./internal/topk ./internal/cache ./internal/index ./internal/server ./internal/cluster ./internal/obs ./internal/sub ./internal/speedup

# The end-to-end suite (cmd/usimd/e2e_test.go): real usimd, usim-index
# and usim-gen processes, race-built like the test binary. CI's e2e job
# runs this target.
e2e:
	go test -race -tags e2e -count=1 ./cmd/usimd

check: build
	go vet ./...
	go vet -tags e2e ./cmd/usimd
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go test ./...

# The perf-regression gate, as CI's bench-gate job runs it. Cross-machine
# ns/op comparisons measure hardware, not code, so BASE and the working
# tree each build one test binary and run BENCH_SET on this machine:
# three single-sample passes per side, alternating which side goes
# first, so host drift between passes lands on both sides. Each binary
# runs in its own checkout, as `go test` would run it, and the head's
# passes carry -benchmem for the allocation bound. Then the tracing
# benchmark runs as five single-sample passes, each timing its bare leg
# then its off leg (one -count 5 run would time all five bare samples
# before any off sample, so host drift would land on one leg), and
# cmd/benchgate prints the drift against BENCH_BASELINE.json and
# enforces every bound on base.txt, current.txt and tracing.txt. The
# base worktree is removed on every exit.
bench-gate: SHELL := bash
bench-gate: .SHELLFLAGS := -euo pipefail -c
bench-gate:
	tmp="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$tmp/base" || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" '$(BASE)'; \
	(cd "$$tmp/base" && go test -c -o "$$tmp/base.test" .); \
	go test -c -o "$$tmp/head.test" .; \
	bench() { \
		(cd "$$1" && "$$2" -test.run '^$$' -test.bench '$(BENCH_SET)' -test.benchtime 3x -test.count 1 -test.timeout 10m "$${@:3}") \
			| grep -E '^Benchmark.*ns/op'; \
	}; \
	: > base.txt; \
	: > current.txt; \
	for round in 1 2 3; do \
		if [ $$((round % 2)) = 1 ]; then \
			bench "$$tmp/base" "$$tmp/base.test" | tee -a base.txt; \
			bench "$(CURDIR)" "$$tmp/head.test" -test.benchmem | tee -a current.txt; \
		else \
			bench "$(CURDIR)" "$$tmp/head.test" -test.benchmem | tee -a current.txt; \
			bench "$$tmp/base" "$$tmp/base.test" | tee -a base.txt; \
		fi; \
	done
	: > tracing.txt; \
	for pass in 1 2 3 4 5; do \
		go test -run '^$$' -bench TracingOverhead -benchmem -benchtime 500x -count 1 ./internal/server \
			| grep -E '^Benchmark.*ns/op' | tee -a tracing.txt; \
	done
	go run ./cmd/benchgate -base base.txt -head current.txt -tracing tracing.txt -baseline BENCH_BASELINE.json

# Refresh the committed long-horizon perf baseline. The bench-gate CI
# job compares BENCH_BASELINE.json against every PR's head run (via
# benchstat, informational), and bench-gate prints the drift between
# the committed stream and a same-machine re-run so runner skew stays
# visible. Run this on a quiet machine when a PR intentionally shifts
# performance, and review the delta alongside the code.
bench-baseline:
	go test -json -run '^$$' -bench '$(BENCH_SET)' -benchmem -benchtime 3x -count 3 . > BENCH_BASELINE.json
