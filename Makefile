GO ?= go
COUNT ?= 10
BENCHTIME ?= 300ms

FUZZTIME ?= 10s

.PHONY: test check vet race audit resume-audit sparse-audit cells-audit policy-audit fuzz-smoke bench-smoke bench-kernel bench-paper bench-json bench-diff profile

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

## audit: full-trace invariant audit — the seed workload under the dynamic
## scheme on the dense kernel (-sparse 0) with every event checked and
## every consolidation Apply verified against a cold matrix rebuild. Exits
## non-zero on the first violation.
audit:
	$(GO) run ./cmd/dvmpsim -audit=event -spare -sparse 0

## sparse-audit: the candidate-set differential gate — the same full-trace
## audit with the default engine (the persistent sparse engine) driving
## placement, which adds the sparse-vs-dense check (every sparse Apply
## replayed against a dense matrix, trackers compared bit-for-bit, and each
## period the persistent engine compared against a fresh sparse build and a
## dense one), then the mirrored differential sweep in internal/audit
## (dense and sparse engines fed identical randomized operation streams
## across multiple seeds).
sparse-audit:
	$(GO) run ./cmd/dvmpsim -audit=event -spare
	$(GO) test ./internal/audit -run 'Sparse' -count=1 -v

## resume-audit: the crash-safety gate — run the seed workload under the
## dynamic scheme three times: uninterrupted, checkpointed-and-killed at
## roughly half the event stream, and resumed from that checkpoint. The
## prefix and tail traces concatenated must be canonically byte-identical
## to the uninterrupted trace (`tracestat -diff` exits non-zero on the
## first differing event).
RESUME_FLAGS ?= -scheme dynamic -nodes 16 -seed 1 -jobs 400 -spare -timed
RESUME_STOP ?= 1500
resume-audit:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/full.jsonl && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/prefix.jsonl \
		-checkpoint $$tmp/ck.json -stop-after $(RESUME_STOP) && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/tail.jsonl \
		-resume $$tmp/ck.json && \
	cat $$tmp/prefix.jsonl $$tmp/tail.jsonl > $$tmp/combined.jsonl && \
	$(GO) run ./cmd/tracestat -diff $$tmp/full.jsonl $$tmp/combined.jsonl && \
	rm -rf $$tmp

## cells-audit: the multi-cell differential gate — the resume-audit
## scenario run monolithically and at 4 and 16 cells (all three traces
## must be canonically byte-identical), then a re-shard resume chain: a
## 16-cell run checkpointed mid-stream and resumed as a 4-cell world,
## whose stitched trace must still match the monolith's. The 16-cell leg
## also runs the full event audit (per-cell queue verification plus the
## sharded snapshot round-trip check).
cells-audit:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/mono.jsonl && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/c4.jsonl -cells 4 && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/c16.jsonl -cells 16 -audit=event && \
	$(GO) run ./cmd/tracestat -diff $$tmp/mono.jsonl $$tmp/c4.jsonl && \
	$(GO) run ./cmd/tracestat -diff $$tmp/mono.jsonl $$tmp/c16.jsonl && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/prefix.jsonl -cells 16 \
		-checkpoint $$tmp/ck.json -stop-after $(RESUME_STOP) && \
	$(GO) run ./cmd/dvmpsim $(RESUME_FLAGS) -trace $$tmp/tail.jsonl -cells 4 \
		-resume $$tmp/ck.json && \
	cat $$tmp/prefix.jsonl $$tmp/tail.jsonl > $$tmp/combined.jsonl && \
	$(GO) run ./cmd/tracestat -diff $$tmp/mono.jsonl $$tmp/combined.jsonl && \
	rm -rf $$tmp

## policy-audit: the decision-recording/replay gate — run the seed
## workload three ways: plain, recorded (-decisions), and replayed from
## the recorded log (cmd/counterfact). Recording must leave the run trace
## canonically byte-identical (the decision stream has its own logical
## clock), and the replay of the recorded decisions must reproduce the
## original trace byte-for-byte (`tracestat -diff` exits non-zero on the
## first differing event, and counterfact exits non-zero on any
## unexpected divergence from the log).
POLICY_FLAGS ?= -scheme dynamic -nodes 16 -seed 1 -jobs 400 -spare -timed
policy-audit:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/dvmpsim $(POLICY_FLAGS) -trace $$tmp/base.jsonl && \
	$(GO) run ./cmd/dvmpsim $(POLICY_FLAGS) -trace $$tmp/recorded.jsonl \
		-decisions $$tmp/dec.jsonl && \
	$(GO) run ./cmd/tracestat -diff $$tmp/base.jsonl $$tmp/recorded.jsonl && \
	$(GO) run ./cmd/counterfact $(POLICY_FLAGS) -decisions $$tmp/dec.jsonl \
		-trace $$tmp/replay.jsonl && \
	$(GO) run ./cmd/tracestat -diff $$tmp/base.jsonl $$tmp/replay.jsonl && \
	rm -rf $$tmp

## fuzz-smoke: short randomized fuzz budgets — the audit harness's
## randomized-operations differential (internal/audit.FuzzOperations),
## the crash-injection resume differential (internal/sim.FuzzSnapshotResume),
## and the multi-cell crash-and-reshard differential
## (internal/sim.FuzzCellOrchestrator). FUZZTIME=10s by default (each).
fuzz-smoke:
	$(GO) test ./internal/audit -run '^$$' -fuzz FuzzOperations -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSnapshotResume -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzCellOrchestrator -fuzztime $(FUZZTIME)

## bench-smoke: run every Kernel*, ConsolidatePersistent, Engine*, and
## Sweep micro-benchmark
## exactly once. Not a measurement — a liveness gate: benchmarks bit-rot
## silently because `go test` never executes them, so check runs each for
## one iteration.
bench-smoke:
	$(GO) test ./internal/core -run '^$$' -bench '^Benchmark(Kernel|ConsolidatePersistent)' -benchtime 1x
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkEngine' -benchtime 1x
	$(GO) test ./internal/exp -run '^$$' -bench '^BenchmarkSweep' -benchtime 1x

## check: the full pre-commit gate — vet, the race-enabled test suite
## (covers the lock-free metrics hot path, the parallel experiment
## harness, the multi-cell engine in internal/sim, internal/cell, and
## internal/exp, and the parallel placement kernels in internal/core —
## the worker-pool fan-outs behind MatrixOptions.Workers run under the
## race detector at explicit worker counts), the full-trace audit run,
## the sparse-vs-dense differential gate, the checkpoint/resume
## crash-safety gate, the multi-cell differential gate, the
## decision-recording/replay gate, a fuzz smoke test, and a
## one-iteration pass over the kernel benchmarks.
check: vet race audit sparse-audit resume-audit cells-audit policy-audit fuzz-smoke bench-smoke

## bench-kernel: benchstat-friendly kernel micro-benchmarks (kernel vs the
## generic Factor path). Pipe to a file and compare runs with
## `benchstat old.txt new.txt`; COUNT=10 gives benchstat enough samples.
bench-kernel:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'Kernel[A-Za-z]*/(kernel|generic)/pms(100|1000)$$' \
		-benchtime $(BENCHTIME) -count $(COUNT)

## bench-paper: one benchmark per paper table/figure (root bench_test.go).
bench-paper:
	$(GO) test . -run '^$$' -bench . -benchmem

## bench-json: regenerate BENCH_core.json (kernel vs the frozen pre-kernel
## implementation on build / round / arrival at 100 and 1000 PMs, plus the
## slab-vs-scalar row-fill ratio), BENCH_engine.json (calendar-queue
## scheduler vs the frozen binary heap at 10k / 100k / 1M dispatched
## events), BENCH_sweep.json (replication-sweep runs/sec at 1/2/4/8
## workers, merged reports asserted byte-identical across worker counts),
## and BENCH_scale.json (dense vs sparse candidate-set placement on
## build / round / arrival at 100 / 1k / 10k PMs, the kernel-workers
## curve at 1/2/4/8 workers over a 1k-PM fleet, a sparse-only 100k-PM
## point, and the multi-cell engine curve at 1/4/16/64 cells over a
## 10k-PM fleet — all equivalence-gated: every parallel or sharded
## result is asserted bit-identical to its serial baseline before any
## timing is recorded).
bench-json:
	$(GO) run ./cmd/benchreport -sizes 100,1000 -o BENCH_core.json \
		-engine-o BENCH_engine.json -sweep-o BENCH_sweep.json \
		-scale-o BENCH_scale.json

## bench-diff: re-measure both suites into a temp directory and compare
## against the committed BENCH_*.json, warning on any per-operation timing
## that regressed by more than 20%. Informational — machine-to-machine
## variance means a warning is a prompt to look, not a failure.
bench-diff:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/benchreport -sizes 100,1000 \
		-o $$tmp/BENCH_core.json -engine-o $$tmp/BENCH_engine.json \
		-sweep-o $$tmp/BENCH_sweep.json -scale-o $$tmp/BENCH_scale.json && \
	$(GO) run ./cmd/benchreport -diff BENCH_core.json $$tmp/BENCH_core.json && \
	$(GO) run ./cmd/benchreport -diff BENCH_engine.json $$tmp/BENCH_engine.json && \
	$(GO) run ./cmd/benchreport -diff BENCH_sweep.json $$tmp/BENCH_sweep.json && \
	$(GO) run ./cmd/benchreport -diff BENCH_scale.json $$tmp/BENCH_scale.json && \
	rm -rf $$tmp

## profile: capture CPU and heap profiles from the seed workload under the
## dynamic scheme (PROFILE_FLAGS to change the run). Inspect with
## `go tool pprof cpu.pprof` / `go tool pprof heap.pprof`.
PROFILE_FLAGS ?= -spare
profile:
	$(GO) run ./cmd/dvmpsim $(PROFILE_FLAGS) -cpuprofile cpu.pprof -memprofile heap.pprof
	@echo "wrote cpu.pprof and heap.pprof"
