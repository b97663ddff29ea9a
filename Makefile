GO ?= go

.PHONY: ci vet build test race faultsmoke servesmoke loadsmoke crashsmoke arenasmoke clustersmoke benchtest fuzz bench benchsmoke benchjson bench5 bench6 bench7 bench8 bench9 bench10

## ci: the full verification gate — vet, build, unit tests, race detector,
## the fault-injection matrix, the admission-server smoke, an open-loop
## load-generator smoke, the durability crash-recovery smoke, the policy
## arena smoke, the served-admission benchmark's own tests, a short fuzz
## smoke of the partition invariants, and a one-iteration benchmark smoke
## (catches benchmarks whose setup asserts fail).
ci: vet build test race faultsmoke servesmoke loadsmoke crashsmoke arenasmoke clustersmoke benchtest fuzz benchsmoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 600s ./...

## faultsmoke: the robustness matrix under the race detector —
## deterministic fault injection (cancel-mid-search, panic-in-pool,
## interrupt-then-resume), degradation paths and checkpoint round-trips.
faultsmoke:
	$(GO) test -race -timeout 120s -count=1 \
		-run 'Cancel|Panic|Degrade|Checkpoint|FaultInjection|Budget|Leak|RunTrials|ForEachTrial|RunAllCtx|RunCtx|AnalyzeCtx' \
		./internal/exact ./internal/sim ./internal/experiments ./internal/faultinject ./internal/pipeline .

## servesmoke: the admission-control server end to end under the race
## detector — ephemeral port, concurrent clients byte-compared against
## direct library calls, mid-flight client hang-up, cache-hit metrics,
## graceful drain and goroutine-leak checks, plus the session/handler
## suites and the command's own SIGINT drain test.
servesmoke:
	$(GO) test -race -timeout 120s -count=1 ./internal/service ./cmd/serve

## loadsmoke: a short open-loop Poisson run against an in-process server.
## Every request in the mix answers 200 on a healthy server, so loadgen's
## default -max-errors 0 makes any error a nonzero exit.
loadsmoke:
	$(GO) run ./cmd/loadgen -rate 400 -duration 2s -clients 8

## crashsmoke: the durability matrix under the race detector, -short
## subset — WAL torn-write corpus, injected crash points in append /
## fsync / rotate / snapshot / replay, byte-identical recovery, degraded
## read-only mode and the clean-drain zero-replay check.
crashsmoke:
	$(GO) test -race -short -timeout 120s -count=1 \
		-run 'WAL|Torn|Snapshot|Injected|Durab|Crash|Degraded|Drain|Replay|Recovery' \
		./internal/oplog ./internal/service

## arenasmoke: race every canonical placement policy on the churn preset
## (tenant + machine churn) under the race detector — the worker-count
## determinism and lane-differential-replay tests run here — then drive
## the CLI once end to end.
arenasmoke:
	$(GO) test -race -timeout 120s -count=1 ./internal/arena ./cmd/arena
	$(GO) run ./cmd/arena -preset churn -workers 8

## clustersmoke: the sharded-cluster suite under the race detector — the
## consistent-hash ring properties (golden mapping, uniformity,
## bounded relocation), the epoch-fenced migration determinism and
## crash matrix, and an in-process 3-replica cluster behind a
## coordinator with one forced migration and one replica crash + WAL
## restart.
clustersmoke:
	$(GO) test -race -timeout 180s -count=1 \
		-run 'Ring|Cluster|Migrat' \
		./internal/cluster ./internal/service

## benchtest: the servebench module's tests. `go test ./...` at the root
## never reaches that module, yet its twin re-derives every served
## session answer, so it pins the session semantics. Same offline
## environment as servebench/run.sh.
benchtest:
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local $(GO) -C servebench test ./...

## fuzz: short smokes of the partition-engine invariant fuzzer and the
## rational arithmetic differential fuzzer (covers the Add/Cmp fast paths).
fuzz:
	$(GO) test ./internal/partition -run Fuzz -fuzz=FuzzPartitionInvariants -fuzztime=10s
	$(GO) test ./internal/rational -run Fuzz -fuzz=FuzzArithmetic -fuzztime=5s

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## benchsmoke: run every benchmark exactly once — cheap assurance that
## benchmark setup assertions (acceptance, miss-free instances) hold.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

## benchjson: record the benchmark suite to results/BENCH_1.json for
## cross-PR perf tracking.
benchjson:
	$(GO) run ./cmd/benchjson -benchtime 0.3s -o results/BENCH_1.json

## bench5: record the online-engine benchmarks (incremental admit vs full
## re-solve, repartition planning) to results/BENCH_5.json.
bench5:
	$(GO) run ./cmd/benchjson -pkg ./internal/online -benchtime 0.3s \
		-note 'online engine: incremental admit vs full re-solve (m=64, n=1000)' \
		-o results/BENCH_5.json

## bench6: record the checkpointed-replay + batch-admission benchmarks to
## results/BENCH_6.json, gated against the BENCH_5 baseline — the gate
## only fails on regressions (tail admit must not get slower); the ~10x
## interior improvement and the new batch benchmark pass through.
bench6:
	$(GO) run ./cmd/benchjson -pkg ./internal/online -benchtime 0.3s \
		-note 'checkpointed suffix replay + batch admission (m=64, n=1000)' \
		-baseline results/BENCH_5.json -max-regress 0.25 \
		-o results/BENCH_6.json

## bench7: record the tiered constrained-deadline admission benchmarks to
## results/BENCH_7.json, gated against the BENCH_6 baseline — the gate
## fails if any implicit-path benchmark regresses; the new
## BenchmarkOnlineAdmitDBF tiered/exact variants (with their
## cheap-tier-rate export) pass through as additions.
bench7:
	$(GO) run ./cmd/benchjson -pkg ./internal/online -benchtime 0.3s \
		-note 'tiered DBF admission: tiered (k=8) vs exact-only (k=0), constrained deadlines (m=64, n=1000)' \
		-baseline results/BENCH_6.json -max-regress 0.25 \
		-o results/BENCH_7.json

## bench8: record the durability benchmarks (WAL append throughput,
## snapshotless cold-open recovery) alongside the online-engine suite to
## results/BENCH_8.json, gated against the BENCH_7 baseline — the gate
## fails if any engine benchmark regresses (durability is opt-in and must
## cost nothing when off); the new BenchmarkWALAppend / BenchmarkRecovery
## entries pass through as additions.
bench8:
	$(GO) run ./cmd/benchjson -pkg "./internal/online ./internal/oplog ./internal/service" -benchtime 0.3s \
		-note 'durable sessions: WAL append modes, crash recovery; engine suite unchanged' \
		-baseline results/BENCH_7.json -max-regress 0.25 \
		-o results/BENCH_8.json

## bench9: record the policy-arena benchmarks (per-tick lane cost by
## policy) alongside the online-engine suite to results/BENCH_9.json,
## gated against the BENCH_8 baseline — the gate fails if any engine
## benchmark regresses (the Policy interface must not tax the tail admit
## path); the new BenchmarkArenaTick entries pass through as additions.
bench9:
	$(GO) run ./cmd/benchjson -pkg "./internal/online ./internal/arena" -benchtime 0.3s \
		-note 'policy arena: pluggable placement policies; engine suite unchanged' \
		-baseline results/BENCH_8.json -max-regress 0.25 \
		-o results/BENCH_9.json

## bench10: record the cluster benchmarks (coordinator-forwarded admit
## vs direct, one full epoch-fenced session migration) alongside the
## online-engine suite to results/BENCH_10.json, gated against the
## BENCH_9 baseline — the gate fails if any engine benchmark regresses
## (clustering is a separate layer and must not tax the engine); the new
## BenchmarkDirectAdmit / BenchmarkForwardedAdmit /
## BenchmarkSessionMigration entries pass through as additions.
bench10:
	$(GO) run ./cmd/benchjson -pkg "./internal/online ./internal/cluster" -benchtime 0.3s \
		-note 'sharded cluster: forwarded vs direct admit, epoch-fenced migration; engine suite unchanged' \
		-baseline results/BENCH_9.json -max-regress 0.25 \
		-o results/BENCH_10.json
