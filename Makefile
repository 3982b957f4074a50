# Tier-1 gate: everything must build, vet clean, lint clean, and pass
# under the race detector before a change lands.
.PHONY: check fmt build vet lint lint-fixtures test bench-module bench bench-allocs bench-smoke calibrate-smoke chaos

check: fmt build vet lint lint-fixtures test bench-module bench-allocs bench-smoke calibrate-smoke chaos

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

# Repo-specific invariant analyzers (determinism taint, lock discipline,
# static lock ordering, hot-path allocations, wire-protocol sync, dropped
# errors). Exits non-zero on any finding; per-analyzer timings on stderr.
lint:
	go run ./cmd/lotec-lint -time ./...

# Analyzer self-test: every analyzer must produce exactly the expected
# diagnostics on its positive fixtures (including the -json golden file)
# and stay silent on the negative ones.
lint-fixtures:
	go test -run 'TestMapIter|TestLockHeld|TestWireSync|TestErrDrop|TestDetSource|TestLockOrder|TestHotAlloc|TestDirectiveAudit|TestMain' ./internal/lint/

test:
	go test -race ./...

# The end-to-end benchmark is its own Go module (benchmark/go.mod), so the
# root module's ./... does not reach its unit tests.
bench-module:
	cd benchmark && go test .

# Regenerate BENCH_results.json (figure workload timings, transfer-stage
# breakdown, fetch-concurrency sweep, sharded directory throughput).
bench:
	go run ./cmd/lotec-bench -figure 3 -json BENCH_results.json

# Steady-state allocation gates (testing.AllocsPerRun) over the
# //lotec:noalloc surfaces: pooled frame get/release, EncodeFrame,
# ReadFrame, DecodeView, and the directory's immediate-grant fast path.
# Run without -race: the poison pass and detector instrumentation change
# the allocation behavior under test.
bench-allocs:
	go test -run 'TestAllocs' ./internal/wire/ ./internal/directory/

# Fast data-plane invariant check: the byte/message trace must be identical
# at FetchConcurrency 1 and 4, and the modeled gather wall-clock must
# improve when transfers fan out. With a committed BENCH_results.json the
# smoke run also regresses bytes_moved/ns_per_op/allocs_per_op for the
# figure rows and the per-path perf/ ledger rows.
bench-smoke:
	go run ./cmd/lotec-bench -figure 3 -smoke

# Observe-predict-calibrate gate: the zipf-hot spec runs on the simulator
# (one unreplicated directory host, as on TCP) and on a real in-process TCP
# cluster; commit/abort counts must match exactly and traffic volume must
# agree within tolerance. Writes the predicted-vs-measured table into a scratch
# file so the committed BENCH_results.json is not touched by CI.
calibrate-smoke:
	go run ./cmd/lotec-bench -calibrate -workload zipf-hot -json /tmp/lotec-calibration.json

# Chaos harness, full matrix: 40 seeds × 7 fault plans × 3 protocols under
# the race detector, plus the zero-fault trace-equivalence gate. A failing
# cell reproduces with: go test ./internal/sim -run TestChaos -chaos-seed=<n>
# (package path first: custom test-binary flags must follow it).
chaos:
	go test -race -run 'TestChaos|TestZeroFaultPlanTraceEquivalence' ./internal/sim/ -chaos-full
