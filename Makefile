GO ?= go

.PHONY: all build test check vet fmt lint race allocs fuzz verify resume-oracle bench bench-smoke bench-selftest batch soak soak-short serve service-smoke cluster-smoke partition-chaos ha-chaos

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the files) when anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs go vet always, and staticcheck when it is installed (the
# offline build environment does not ship it; CI installs it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# allocs is the allocation-regression gate: the interpreter's hot
# step loop AND the DSA steady-state watch path (cache hit, dependency
# re-validation, checkpointed takeover, batched NEON, commit) must not
# allocate. It must run without -race (the detector's instrumentation
# allocates), which is why it is a separate target from race.
allocs:
	$(GO) test -run 'ZeroAlloc' ./internal/cpu ./internal/dsa

# check is the CI gate: static checks, the allocation gate, and the
# full suite under the race detector.
check: vet fmt allocs race

# fuzz gives every fuzz target a short budget (CI smoke; run longer
# locally when touching a decoder): the assembler, the job-submission
# decode, both daemons' state-file loaders, replication batch apply,
# the snapshot container and record stream, and the dsa snapshot
# sections. The checked-in corpora under each package's testdata/fuzz
# start the runs warm; the minimization cap keeps the budget on new
# inputs rather than on shrinking the first interesting one.
fuzz:
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzLoadState$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzReplicateBatch$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzSnapshotParse$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/dsa -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime 10s -fuzzminimizetime 2s

# verify runs the differential oracle over the whole workload suite.
verify:
	$(GO) run ./cmd/dsasim -verify

# resume-oracle runs the interrupt/resume differential oracle on a
# 3-workload subset (the full sweep runs with the regular test suite),
# plus the silent cidp-skew fault cases: kill at random steps (four
# per DSA case), resume from the snapshot, require bit-identical
# results. DSASIM_RESUME_SEED replays a failing kill point.
resume-oracle:
	DSASIM_RESUME_WORKLOADS=mm_32x32,str_prep,bit_count \
		$(GO) test -race -run 'TestInterruptResume(Oracle|Faulted)' -v ./internal/experiments

# batch runs the whole workload x config matrix under the simulation
# supervisor (concurrent, deadline-guarded, panic-isolated).
batch:
	$(GO) run ./cmd/dsasim -batch -configs extended,original,scalar

# soak-short is the bounded chaos soak CI runs (~30s): every workload
# x fault class concurrently under the race detector, plus synthetic
# panic and runaway jobs — zero lost jobs is the acceptance bar.
soak-short:
	$(GO) test -race -short -run TestChaosSoak -timeout 300s ./internal/integration

# soak is the extended chaos soak (adds sparse fault arming).
soak:
	$(GO) test -race -run TestChaosSoak -timeout 1800s ./internal/integration

# serve boots the dsasimd simulation service on :8077 with its state
# under ./dsasimd-data (job table + per-job checkpoints). SIGTERM
# drains gracefully; restarting resumes interrupted jobs.
serve:
	$(GO) run ./cmd/dsasimd -addr :8077 -data dsasimd-data

# service-smoke is the CI gate for the dsasimd service: the HTTP e2e
# suite (submit/poll parity, 429 backpressure, SSE progress, metric
# names, drain→restart resume) under the race detector, then the real
# binary booted and driven over HTTP with a SIGTERM shutdown.
service-smoke:
	$(GO) test -race -timeout 600s ./internal/server
	$(GO) test -run TestDaemonSmoke -timeout 300s ./cmd/dsasimd

# cluster-smoke is the CI gate for multi-worker dsasimd: the
# in-process lease-protocol suite (expiry takeover, zombie fencing,
# coordinator restart recovery, metric names) under the race
# detector; the held-heartbeat and worker-pacing tests ten more times,
# because the hold is reached from several goroutines at once; then
# real processes — a coordinator plus two workers, one SIGKILLed
# mid-run — with zero lost jobs and results bit-identical to a
# single-process run.
cluster-smoke:
	$(GO) test -race -timeout 600s ./internal/cluster
	$(GO) test -race -count=10 -run 'TestHeartbeatHold|TestWorkerPacing' -timeout 600s ./internal/cluster
	$(GO) test -run TestClusterSmoke -timeout 600s ./cmd/dsasimd

# partition-chaos is the network-fault robustness gate: a coordinator
# plus three workers behind commanded TCP proxies, driven through full
# and asymmetric partitions, slow-drip bandwidth, and connection
# resets while every HTTP exchange suffers seeded drop/delay/
# duplicate/reset/truncate/errcode injection — three seeds, race
# detector on, zero lost jobs and bit-identical digests required.
# A failing run logs its seed; DSASIMD_CHAOS_SEED=<seed> replays it.
partition-chaos:
	$(GO) test -race -run TestClusterPartitionChaos -timeout 1800s -v ./cmd/dsasimd

# ha-chaos is the coordinator-failover gate: the in-process HA suite
# (replicated mirror promotion, role endpoints, deposition fencing,
# endpoint rotation) under the race detector, then real processes —
# three replicated coordinators with netchaos-proxied replication
# links plus three workers: the leader SIGKILLed mid-dispatch, its
# replacement rejoined as a standby, and the successor partitioned off
# its peers past the lease TTL — three seeds, zero lost jobs,
# exactly-once completion, bit-identical digests, and every deposed
# term's writes fenced with 409. A failing run logs its seed;
# DSASIMD_CHAOS_SEED=<seed> replays it.
ha-chaos:
	$(GO) test -race -run TestHA -timeout 600s ./internal/cluster
	$(GO) test -race -run TestCoordinatorFailoverChaos -timeout 1800s -v ./cmd/dsasimd

# bench measures simulator throughput (wall-clock, steps/sec, scalar
# and DSA modes) and persists it as BENCH_sim.json, then runs the Go
# benchmark suite (simulated-machine metrics: ticks, speedups, energy).
bench:
	$(GO) run ./cmd/benchsim -out BENCH_sim.json
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke compiles and runs every benchmark exactly once — the CI
# guard that keeps the bench suite from bit-rotting between perf work.
bench-smoke:
	$(GO) test -bench . -benchtime 1x ./...

# bench-selftest runs the repository benchmark's own tests (bench/ is a
# module of its own, outside ./...; about 40 s): its metric catalogue
# against BENCHMARK.json, and two workloads untraced and traced, which
# drive server.New the way the benchmark does and check every
# built-in's result against the golden rows and each generated
# program's scalar digest.
bench-selftest:
	cd bench && $(GO) test -short ./...
