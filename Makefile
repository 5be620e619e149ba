# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; the targets here exist so the local invocations and the
# gate's inputs cannot drift apart.

.PHONY: build test race check bench-set bench-baseline

# The bench-gate benchmark set, declared once: the bench-gate CI job
# reads it through `make -s bench-set`, and bench-baseline records it.
BENCH_SET := SRSP|SingleSource|SamplingV2|ApplyUpdates

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/core ./internal/parallel ./internal/topk ./internal/cache ./internal/index ./internal/server ./internal/cluster ./internal/obs ./internal/sub ./internal/speedup

check: build
	go vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go test ./...

bench-set:
	@echo '$(BENCH_SET)'

# Refresh the committed long-horizon perf baseline. The bench-gate CI
# job compares BENCH_BASELINE.json against every PR's head run (via
# benchstat, informational) and prints the drift between the committed
# stream and a same-machine re-run so runner skew stays visible. Run
# this on a quiet machine when a PR intentionally shifts performance,
# and review the delta alongside the code.
bench-baseline:
	go test -json -run '^$$' -bench '$(BENCH_SET)' -benchmem -benchtime 3x -count 3 . > BENCH_BASELINE.json
