# Verification tiers. Tier 1 is the seed gate (ROADMAP.md); tier 2 keeps
# the concurrent paths honest now that experiments fan out across worker
# goroutines; the torture tier replays the crash matrix under the race
# detector. CI (or a pre-merge hand-run) should execute all three, plus
# `make cross`, which vets the module for an architecture without the
# amd64 assembly.

.PHONY: verify verify-race verify-all cross torture fuzz-smoke bench-parallel bench-smoke bench-json bench-gate determinism fmt obs audit serve-smoke placement

# Formatting gate: fail if any file needs gofmt.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# Tier 1: build + full test suite (formatting enforced first).
verify: fmt
	go build ./... && go test ./...

# Tier 2: static checks (copylocks matters: metrics types hold locks)
# plus the whole suite under the race detector. The raised timeout is
# per package: the determinism golden matrices (concurrency, audit,
# read-workers) run dozens of full simulations each, which on a small
# shared machine can exceed go test's 10m default under -race.
verify-race:
	go vet ./... && go test -race -timeout 20m ./...

# Cross-architecture check: vet the whole module for arm64, which has no
# assembly, so the portable Reed-Solomon kernel that every CPU without
# the amd64 AVX2 path runs keeps compiling. Offline: the standard
# library cross-compiles from the toolchain's own source.
cross:
	GOARCH=arm64 go vet ./...

# Crash-and-recovery torture: the power-cut matrix, crash-mid-GC and
# crash-mid-resuscitation rebuilds, and fault-injection tests, under the
# race detector at two parallelism levels (reports must be identical).
# The torture tests run the full backend matrix (ftl + zns subtests);
# the per-backend rebuild/recovery suites run explicitly as well.
torture:
	go test -race ./internal/torture/ ./internal/fault/ -v
	go test -race ./internal/ftl/ -run 'TestRebuild'
	go test -race ./internal/zns/ -run 'TestBackendRecover|TestCrash'
	go test -race -parallel 8 ./internal/torture/

# Fuzz smoke: ten seconds of coverage-guided fuzzing per target —
# Reed-Solomon decode, whole-page Reed-Solomon scheme decode (the
# four-shard kernel against a per-shard reference), the Hamming scheme, the backend reference model,
# backend recovery over fuzzed OOB tags, the Prometheus exposition
# validator, then the profile, backend and placement name parsers —
# beyond the seed corpora (which plain go test replays).
# go test takes one -fuzz target per call. A backend-model input is
# slow to run (two backends, every LPA checked after every op), an
# exposition input starts from a 3 KB scrape golden, and minimizing a
# new Hamming input stalls the run, a scheme-page input encodes and
# decodes a page of up to 4 KiB twice, so minimizing would otherwise take
# the rest of the ten seconds; -fuzzminimizetime 1s caps that and
# leaves the budget to fuzzing. It changes how the time is spent, not
# what is checked.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzRSDecodeInPlace$$' -fuzztime 10s ./internal/ecc
	go test -run '^$$' -fuzz '^FuzzRSSchemePage$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/ecc
	go test -run '^$$' -fuzz '^FuzzHammingScheme$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/ecc
	go test -run '^$$' -fuzz '^FuzzBackendModel$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/device
	go test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/device
	go test -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs
	go test -run '^$$' -fuzz '^FuzzParseNames$$' -fuzztime 10s -fuzzminimizetime 1s .

verify-all: verify verify-race cross torture fuzz-smoke bench-smoke bench-gate audit serve-smoke placement

# Serial vs parallel RunAll wall-clock (quick fidelity under -short).
bench-parallel:
	go test -run '^$$' -bench 'BenchmarkRunAll|BenchmarkE13' -benchtime 1x -short -v .

# Bench smoke: every benchmark must still *run* (one iteration, quick
# fidelity) — catches bit-rotted benchmark code without paying for a
# real measurement.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -short .

# Substrate micro-benchmark baseline as JSON (name, ns/op, B/op,
# allocs/op). Redirect to refresh the committed baseline:
#
#	make bench-json > BENCH_PR10.json
BENCH_REGEX := BenchmarkRSEncode4K|BenchmarkRSEncodeDense4K|BenchmarkRSEncodeIntoDense4K|BenchmarkRSDecode|BenchmarkHammingEncode4K|BenchmarkFlashProgramRead|BenchmarkFTLWrite|BenchmarkFTLRead|BenchmarkFTLRebuild|BenchmarkDeviceWrite|BenchmarkDeviceRead|BenchmarkDeviceReadSerial|BenchmarkGCRelocateBatch|BenchmarkAuditPass|BenchmarkZNSAppend|BenchmarkRecorder

bench-json:
	@go build -o /tmp/benchjson ./cmd/benchjson
	@go test -run '^$$' -bench '$(BENCH_REGEX)' -benchmem . | /tmp/benchjson

# Bench regression gate: re-measure the baseline benchmarks and diff
# against the committed BENCH_PR10.json. The tolerance is deliberately
# generous (+60% ns/op) because single-shot runs on shared hardware are
# noisy — the gate exists to catch order-of-magnitude regressions, a
# newly-allocating zero-alloc path, or a benchmark that silently
# vanished, not 10% wobble. (EXPERIMENTS.md discusses the tolerance.)
# The baseline also pins the read-datapath win: BenchmarkDeviceRead
# (batched, queues=4 planes=4 read-workers=8) must stay well under
# BenchmarkDeviceReadSerial, and its allocs/op baseline of zero is an
# exact contract.
bench-gate:
	@go build -o /tmp/benchjson ./cmd/benchjson
	@go test -run '^$$' -bench '$(BENCH_REGEX)' -benchmem . | /tmp/benchjson -diff BENCH_PR10.json -tol 0.6

# Observability smoke: a simulation's Prometheus exposition must pass
# the repo's own scrape validator end to end — over both backends.
obs:
	@go build -o /tmp/sossim-obs ./cmd/sossim
	@go build -o /tmp/promcheck-obs ./cmd/promcheck
	@/tmp/sossim-obs -sim -days 30 -backend=ftl -metrics | /tmp/promcheck-obs
	@/tmp/sossim-obs -sim -days 30 -backend=zns -metrics | /tmp/promcheck-obs

# Integrity-audit smoke: an audited simulation's exposition (including
# the sos_degradation_* family) must pass the scrape validator, and the
# audit must actually scan (budget spent) — over both backends.
audit:
	@go build -o /tmp/sossim-audit ./cmd/sossim
	@go build -o /tmp/promcheck-audit ./cmd/promcheck
	@/tmp/sossim-audit -sim -days 30 -backend=ftl -audit -scrub-budget 32 -metrics | /tmp/promcheck-audit
	@/tmp/sossim-audit -sim -days 30 -backend=zns -audit -scrub-budget 32 -metrics | /tmp/promcheck-audit
	@/tmp/sossim-audit -sim -days 30 -backend=ftl -audit -scrub-budget 32 | grep -q 'audit            passes=' \
		&& echo "audit: OK (exposition valid, audit line present)"

# Fleet-daemon smoke: boot `sossim -serve` on an ephemeral port, drive
# it over real HTTP (64-shard smoke fleet, advance 7 days), diff the
# report against the checked-in golden, and validate the /metrics
# scrape with promcheck. Exercises the whole serve path from outside
# the process.
serve-smoke:
	@go build -o /tmp/sossim-serve ./cmd/sossim
	@go build -o /tmp/promcheck-serve ./cmd/promcheck
	@go build -o /tmp/fleetsmoke ./cmd/fleetsmoke
	@/tmp/fleetsmoke -sossim /tmp/sossim-serve -promcheck /tmp/promcheck-serve

# Placement smoke: the full-fidelity E19 run (fast — small chip) must
# report the longevity win on every backend/family cell without
# concurrency warnings, and a -placement=longevity simulation must be
# byte-identical at workers 1 vs 8 (the E19 table itself re-checks
# queues=4/workers=8 per cell via identical_q4w8).
placement:
	@go build -o /tmp/sossim-placement ./cmd/sossim
	@/tmp/sossim-placement -exp E19 -parallel 0 > /tmp/sossim-placement-e19.txt
	@! grep -q 'WARNING' /tmp/sossim-placement-e19.txt || \
		{ echo "placement: E19 reported a concurrency warning"; exit 1; }
	@grep -q 'longevity improves on hints-off' /tmp/sossim-placement-e19.txt \
		&& echo "placement: OK (E19 shows the longevity win)"
	@/tmp/sossim-placement -sim -days 30 -placement=longevity -parallel 1 > /tmp/sossim-placement-w1.txt
	@/tmp/sossim-placement -sim -days 30 -placement=longevity -parallel 8 > /tmp/sossim-placement-w8.txt
	@cmp /tmp/sossim-placement-w1.txt /tmp/sossim-placement-w8.txt \
		&& echo "placement: OK (longevity sim identical at workers 1 and 8)"

# CLI-level determinism check: experiment output must be bit-identical
# for every -parallel value.
determinism:
	@go build -o /tmp/sossim-det ./cmd/sossim
	@/tmp/sossim-det -exp all -quick -parallel 1 > /tmp/sossim-det-p1.txt
	@/tmp/sossim-det -exp all -quick -parallel 8 > /tmp/sossim-det-p8.txt
	@cmp /tmp/sossim-det-p1.txt /tmp/sossim-det-p8.txt && echo "determinism: OK (parallel 1 == parallel 8)"
