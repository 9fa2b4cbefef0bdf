#!/usr/bin/env bash
# check.sh is the repository's full verification gate: build, vet, the
# dimelint invariant analyzers, the race-enabled test suite, and a short
# fuzz smoke on the parser, edit-DP, id-path verification and differential
# fuzz targets. CI and pre-merge runs should invoke exactly this script (or
# `make check`, which delegates here).
#
# The race-enabled suite includes the differential harness at the repo root
# (dime_difftest_test.go), which runs DIME+ with IntraWorkers of 2 and 4 over
# a couple hundred generated groups — that is the gate proving the parallel
# path both data-race-free and byte-identical to the sequential one. It also
# includes the serving-layer conformance suite (dime_serve_difftest_test.go),
# which replays the same corpus through the internal/serve HTTP API and
# demands byte-identity with the in-process results, plus the endpoint
# golden, backpressure, graceful-shutdown and concurrent-clients stress
# tests under internal/serve and cmd/dimed (`make serve-test` runs just
# those), and the chaos differential suite (dime_chaos_difftest_test.go),
# which replays that corpus through deterministic fault injection with the
# resilient client and demands byte-identical results, deduplicated jobs and
# zero surfaced failures (`make chaos-test` runs just that slice).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== dimelint ./... (baseline: lint.baseline.json, budget: alloc.budget.json, lock baseline: lock.baseline.json)"
# The allocation budget is the static half of the perf gate: dimelint fails
# when a hot-path allocation site is added beyond alloc.budget.json. To
# bootstrap a fresh budget (e.g. after deliberate optimization work removes
# sites, or on a new checkout where the file is missing/empty), regenerate it
# with:
#     go run ./cmd/dimelint -write-alloc-budget alloc.budget.json ./...
# and review the diff — shrinkage is a win to commit, growth needs a reason.
# lock.baseline.json gates the locklint concurrency suite the same way and is
# kept empty: a new lock-order inversion, blocking call under a held lock,
# uncancellable goroutine or dropped context fails this step.
go run ./cmd/dimelint -baseline lint.baseline.json -alloc-budget alloc.budget.json -lock-baseline lock.baseline.json ./...

echo "== dimelint -only locklint ./... (concurrency-suite smoke)"
# The narrowed run proves the locklint group alias and the -lock-baseline
# split stay wired: it must see exactly the four concurrency analyzers and
# report nothing new against the (empty) lock baseline.
go run ./cmd/dimelint -only locklint -lock-baseline lock.baseline.json ./...

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz smoke (${FUZZTIME} per target)"
go test -run=NONE -fuzz=FuzzParseRule -fuzztime="${FUZZTIME}" ./internal/rules
go test -run=NONE -fuzz=FuzzEditDistance -fuzztime="${FUZZTIME}" ./internal/sim
go test -run=NONE -fuzz=FuzzVerifyIDPath -fuzztime="${FUZZTIME}" ./internal/signature
go test -run=NONE -fuzz=FuzzDiffDIMEPlus -fuzztime="${FUZZTIME}" .

if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
    echo "== bench snapshot (CHECK_BENCH=1)"
    ./scripts/bench.sh
    # The snapshot bench.sh just appended to BENCH_history.jsonl becomes the
    # newest trend entry: compare it against the median of the preceding runs
    # so a slow creep that never trips the single-diff gate still fails here.
    if [[ "${BENCH_ALLOW_REGRESS:-0}" != "1" && -s BENCH_history.jsonl ]]; then
        echo "== bench trend (vs BENCH_history.jsonl median)"
        go run ./cmd/benchjson -trend -history BENCH_history.jsonl -gate "${BENCH_GATE:-BenchmarkDIMEPlus}"
    fi
fi

echo "check: all gates passed"
