# Development entry points. Everything is plain `go` — the Makefile only
# names the common invocations.

GO ?= go

.PHONY: all build vet test test-race cover bench bench-report cluster-smoke ingest-smoke experiments examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# The testing.B series (one family per paper artifact; see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the checked-in BENCH_baseline.json run summary (full size).
# Run on an otherwise idle machine. CI checks every push's answer digests
# against this file.
bench-report:
	$(GO) run ./cmd/wlq-bench -suite -json BENCH_baseline.json

# Multi-process cluster smoke: coordinator + 3 workers on loopback, one
# killed mid-run (206 + completeness), rejoined (digest-equal 200). CI runs
# this on every push.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Crash-recovery smoke: a live-ingest server is SIGKILLed mid-append and
# restarted on the same WAL; the recovered state must answer digest-equal
# to a control server fed exactly the durable prefix. CI runs this on every
# push.
ingest-smoke:
	./scripts/ingest_crash_smoke.sh

# Regenerate the EXPERIMENTS.md tables (E1-E12).
experiments:
	$(GO) run ./cmd/wlq-bench

experiments-quick:
	$(GO) run ./cmd/wlq-bench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clinic
	$(GO) run ./examples/audit
	$(GO) run ./examples/monitor

# Short fuzzing pass over the parsers, codecs and the sharded evaluator —
# the same targets as the CI fuzz smoke, run longer.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -run XXX ./internal/core/pattern/
	$(GO) test -fuzz=FuzzPostfix -fuzztime=30s -run XXX ./internal/core/pattern/
	$(GO) test -fuzz=FuzzDecodeText -fuzztime=30s -run XXX ./internal/logio/
	$(GO) test -fuzz=FuzzDecodeJSONL -fuzztime=30s -run XXX ./internal/logio/
	$(GO) test -fuzz=FuzzImportCSV -fuzztime=30s -run XXX ./internal/logio/
	$(GO) test -fuzz=FuzzImportXES -fuzztime=30s -run XXX ./internal/logio/
	$(GO) test -fuzz=FuzzParseValue -fuzztime=30s -run XXX ./internal/logio/
	$(GO) test -fuzz=FuzzScanSegment -fuzztime=30s -run XXX ./internal/wal/
	$(GO) test -fuzz=FuzzShardedEquivalence -fuzztime=30s -run XXX ./internal/shard/

clean:
	$(GO) clean ./...
