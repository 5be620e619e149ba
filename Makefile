# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; the targets here exist so the local invocations and the
# gate's inputs cannot drift apart.

.PHONY: build test race check bench-baseline

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/core ./internal/parallel ./internal/topk ./internal/cache ./internal/server ./internal/cluster ./internal/obs ./internal/sub

check: build
	go vet ./...
	gofmt -l .
	go test ./...

# Refresh the committed long-horizon perf baseline. The bench-gate CI
# job compares BENCH_BASELINE.json against every PR's head run (via
# benchstat, informational) and prints the drift between the committed
# stream and a same-machine re-run so runner skew stays visible. Run
# this on a quiet machine when a PR intentionally shifts performance,
# and review the delta alongside the code — the benchmark set must stay
# identical to the bench-gate job's regex.
bench-baseline:
	go test -json -run '^$$' -bench 'SRSP|SingleSource|SamplingV2|ApplyUpdates' -benchmem -benchtime 3x -count 3 . > BENCH_BASELINE.json
