# Tier-1 verification and race-detector targets. The telemetry, backend
# and core packages are concurrency-heavy (harvest tunnels, chaos suite,
# shared store, parallel usage-epoch pipeline), so `race` must
# stay green across the whole module, not just `test`. CI
# (.github/workflows/ci.yml) runs build + vet + test + race. Every
# subprocess proof (crash, cluster, rebalance, monitoring, trace dump)
# is a `go test` under cmd/, so `test` runs it and `prove` re-runs it
# uncached.

.PHONY: build test vet race bench bench-gate bench-baseline bench-test wire-compat docs docs-gen loc prove verify

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
# mixed-fleet (v2 agent, v1 backend) harvests must agree byte-for-byte
# on the store digest, plus a 30 s fuzz arm each over the batch decoder
# (FuzzDecodeBatchFrame, which also checks that a reused BatchDecoder
# decodes every input exactly as a fresh one), the frame demultiplexer
# (FuzzDecodeMessage), the v1 report and span decoders against their
# pre-sticky-error reference (FuzzUnmarshalReport), and the decoders
# that read disk: the store snapshot gob that checkpoint, snapshot and
# absorb all load through (FuzzStoreLoad), WAL segment framing
# (FuzzWALReplay) and replay of one record of every shape into a
# DurableStore (FuzzDurableReplay) — and a 60 s arm of FuzzStoreOps,
# which holds Store and DurableStore to the naive model in
# internal/backend/model_test.go over fuzzed op sequences. One of its
# inputs takes tens of milliseconds, so it minimizes a new input for at
# most 5 s instead of the default 60 s, which would spend the whole arm
# on the first few.
wire-compat:
	go test ./internal/backend -run 'TestWireDigestEquivalence' -count=1 -v
	go test ./internal/core -run 'TestUsageEpochWireEquivalence' -count=1
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 30s
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeMessage -fuzztime 30s
	go test ./internal/telemetry -run xxx -fuzz FuzzUnmarshalReport -fuzztime 30s
	go test ./internal/backend -run xxx -fuzz FuzzStoreLoad -fuzztime 30s
	go test ./internal/wal -run xxx -fuzz FuzzWALReplay -fuzztime 30s
	go test ./internal/backend -run xxx -fuzz FuzzDurableReplay -fuzztime 30s
	go test ./internal/backend -run xxx -fuzz FuzzStoreOps -fuzztime 60s -fuzzminimizetime 5s

# bench-test compiles and tests the benchmark harness. bench/ is its
# own module, so the root `go test ./...` never builds it against a
# changed internal/cluster or internal/backend; this does.
bench-test:
	go -C bench vet ./... && go -C bench test ./...

# docs is the documentation gate: the generated CLI flag reference
# docs/FLAGS.md must match the flag registrations in cmd/* (TestFlagsDoc
# in the root docs_test.go), and the generated query-command reference
# docs/COMMANDS.md must match merakid's command table (TestCommandsDoc)
# — change a flag or a command without running `make docs-gen` and CI
# fails. `test` runs both too, like TestEveryPackageHasOneDocComment,
# the one-package-comment floor; -count=1 here re-reads the docs past
# the test cache.
DOC_TESTS = go test . ./cmd/merakid -run 'TestFlagsDoc|TestCommandsDoc' -count=1

docs:
	go vet ./...
	$(DOC_TESTS)

# docs-gen regenerates docs/FLAGS.md and docs/COMMANDS.md after a flag
# or command change.
docs-gen:
	$(DOC_TESTS) -update

# loc prints the tracked Go line counts outside bench/ — the non-test
# number is the one the ROADMAP north star says should go down — and
# the bench/ module's own, counted the same way.
loc:
	@printf 'non-test %s\n' "$$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l)"
	@printf 'bench    %s non-test, %s test\n' "$$(git ls-files 'bench/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)" "$$(git ls-files 'bench/*.go' | grep '_test\.go$$' | xargs cat | wc -l)"

# prove runs every subprocess proof: real merakid fleets SIGKILLed and
# recovered, sharded, rebalanced through the merakireport operator CLI
# and degraded into firing alerts, plus merakisim's trace dump. They
# are ordinary tests that `test` and `race` already run; -count=1
# re-runs them because go's test cache cannot see the sources of the
# binaries fleettest.Build compiles.
prove:
	go test -count=1 ./cmd/...

verify: build vet test race bench-test docs prove
