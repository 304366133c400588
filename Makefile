# Tier-1 verification and race-detector targets. The telemetry, backend
# and core packages are concurrency-heavy (harvest tunnels, chaos suite,
# shared store, parallel usage-epoch pipeline), so `race` must
# stay green across the whole module, not just `test`. CI
# (.github/workflows/ci.yml) runs build + vet + test + race.

.PHONY: build test vet race bench bench-gate bench-baseline bench-test wire-compat docs docs-gen loc trace-smoke crash-smoke cluster-smoke mon-smoke rebalance-smoke verify

# GATE_BENCH is the benchmark set the regression gate measures: the
# wire codecs (bytes/report is the headline EXPERIMENTS.md number), the
# in-memory harvest pipeline for both wire versions, and the three
# costs of a store snapshot (hold is the ingest stall: only the
# exclusive section of a capture). Fixed -50x iteration counts keep the
# run fast and the allocation counts exact; WAL arms are excluded
# because fsync timing is the disk's, not ours.
GATE_BENCH = BenchmarkWireEncode|BenchmarkHarvestPipeline/wire-v./volatile|BenchmarkStoreSnapshot

build:
	go build ./...

test:
	go test ./...

# vet also fails when any tracked Go file outside bench/ is not
# gofmt-formatted.
vet:
	go vet ./...
	@unformatted="$$(git ls-files '*.go' | grep -v '^bench/' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

race:
	go vet ./... && go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# bench-gate fails if any gated benchmark regressed past tolerance
# versus the checked-in BENCH_baseline.json (±20% for deterministic
# size/alloc metrics, wider for wall-clock; see scripts/benchgate).
bench-gate:
	go test ./internal/backend -run xxx -bench '$(GATE_BENCH)' \
		-benchmem -benchtime 50x | go run ./scripts/benchgate -baseline BENCH_baseline.json

# bench-baseline reruns the gated benchmarks and rewrites the baseline;
# use after an intentional perf or wire-format change.
bench-baseline:
	go test ./internal/backend -run xxx -bench '$(GATE_BENCH)' \
		-benchmem -benchtime 50x | go run ./scripts/benchgate -baseline BENCH_baseline.json -update

# wire-compat is the digest-equivalence gate: 10 seeds of v1, v2, and
# mixed-fallback harvests must agree byte-for-byte on the store digest,
# plus a fuzz pass over the batch decoder and the frame demultiplexer.
wire-compat:
	go test ./internal/backend -run 'TestWireDigestEquivalence' -count=1 -v
	go test ./internal/core -run 'TestUsageEpochWireEquivalence' -count=1
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 30s
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeMessage -fuzztime 30s

# bench-test compiles and tests the benchmark harness. bench/ is its
# own module, so the root `go test ./...` never builds it against a
# changed internal/cluster or internal/backend; this does.
bench-test:
	go -C bench vet ./... && go -C bench test ./...

# docs is the documentation gate: every package in the module must
# carry exactly one package comment (scripts/checkdocs), the generated
# CLI flag reference docs/FLAGS.md must match the flag registrations in
# cmd/* (scripts/flagdoc -check), and the generated query-command
# reference docs/COMMANDS.md must match merakid's command table
# (TestCommandsDoc) — change a flag or a command without running
# `make docs-gen` and CI fails.
docs:
	go vet ./... && go run ./scripts/checkdocs
	go run ./scripts/flagdoc -check docs/FLAGS.md
	go test ./cmd/merakid -run TestCommandsDoc -count=1

# docs-gen regenerates docs/FLAGS.md and docs/COMMANDS.md after a flag
# or command change.
docs-gen:
	go run ./scripts/flagdoc -out docs/FLAGS.md
	go test ./cmd/merakid -run TestCommandsDoc -count=1 -update

# loc prints the tracked Go line counts outside bench/ — the non-test
# number is the one the ROADMAP north star says should go down.
loc:
	@printf 'non-test %s\n' "$$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l)"

# trace-smoke runs a fully sampled offline harvest and validates the
# flight-recorder dump: it must parse as JSON and contain at least one
# complete five-stage trace (see scripts/tracecheck).
trace-smoke:
	go run ./cmd/merakisim -networks 4 -trace-sample 1.0 \
		-trace-out /tmp/trace-smoke.json -out /tmp/trace-smoke.gob
	go run ./scripts/tracecheck /tmp/trace-smoke.json

# crash-smoke is the kill-and-recover gate: harvest a live agent fleet
# into a WAL-backed merakid, SIGKILL it mid-harvest (twice), restart it
# over the same -wal-dir, and require the recovered store digest to
# match a never-crashed control (see scripts/crashcheck). The
# cmd/merakid crash tests run the same proof across 10 seeds in-tree.
crash-smoke:
	go run ./scripts/crashcheck -seed 1 -cycles 2

# cluster-smoke is the sharded-deployment gate: spawn a 4-shard merakid
# cluster (per-shard WAL dirs, -shard/-shards/-peers), harvest a
# mixed-wire fleet routed by the shard map, and require both the
# router's merged digest and shard 0's own "fanout digest" to match a
# single-daemon control (see scripts/clustercheck). The cmd/merakid and
# internal/cluster tests run the same proof in-tree, including a
# SIGKILLed-and-recovered shard.
cluster-smoke:
	go run ./scripts/clustercheck -shards 4

# mon-smoke is the observability gate: spawn a 2-shard cluster on a
# fast series/health cadence, degrade one shard with faultnet-corrupted
# chaos agents, and require the harvest-degradation alert to fire and
# resolve, the transitions to be counted in health.* metrics, shard 0's
# /debug/federate to carry both shards' samples, and one merakireport
# -watch refresh to render every shard (see scripts/moncheck).
mon-smoke:
	go run ./scripts/moncheck

# rebalance-smoke is the live-migration gate: harvest into a 2-shard
# WAL-backed cluster, grow it to 3 shards with the real operator flow
# (`merakireport -cluster OLD -rebalance NEW` — part, extract, absorb,
# digest-verify, cut over), flip the fleet, and require the 3-shard
# merged digest to match a single-store control with moved networks
# gone from their sources (see scripts/rebalancecheck). The
# cmd/merakid rebalance tests run the same proof in-tree, including a
# destination SIGKILLed mid-migration.
rebalance-smoke:
	go run ./scripts/rebalancecheck

verify: build vet test race bench-test docs trace-smoke crash-smoke cluster-smoke mon-smoke rebalance-smoke
