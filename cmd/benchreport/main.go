// Command benchreport measures the repository's two performance pillars
// and records the results as JSON at the repository root:
//
//   - BENCH_core.json — the factored evaluation kernel against the
//     pre-kernel code path (frozen in internal/core/oracle) on the three
//     hot operations of the scheme: probability-matrix build, per-round
//     incremental update, and arrival placement.
//   - BENCH_engine.json — the calendar-queue event scheduler against the
//     pre-rewrite binary heap (frozen in internal/sim/schedheap) on a
//     steady-state churn workload at several total-event scales, with
//     events/sec and the wheel's allocation rate.
//   - BENCH_sweep.json — replication-sweep throughput (runs/sec) of
//     exp.RunSweep at several worker counts over a fixed reduced
//     configuration, with the host's CPU count recorded (scaling is bound
//     by available cores) and the merged reports asserted byte-identical
//     across worker counts.
//   - BENCH_scale.json — the sparse candidate-set engine
//     (MatrixOptions.CandidateK) against the dense kernel on the same
//     three hot operations at 100/1k/10k PMs. Decisions are asserted
//     identical (SparseMatrix.DiffDense, same arrival PM) before any
//     timing; the numbers quantify cost only, never behavior. The same
//     file also carries the multi-cell engine's curve: a fixed workload
//     on a 10k-PM fleet simulated end to end at C∈{1,4,16,64} cells,
//     every cell count's Result asserted identical to the monolith's
//     before timing, reporting whole-run and per-event cost of the
//     shared-clock orchestrator.
//
// BENCH_core.json additionally records, per scale, the slab-vs-scalar row
// fill ratio: the batched aligned-slab kernel path against the same kernel
// with MatrixOptions.DisableSlab, both rows asserted bit-identical first.
//
// It complements the `go test -bench` micro-benchmarks: those compare
// alternatives inside the current implementation, while this command
// compares against the frozen originals and emits a machine-readable
// record that `benchreport -diff` (and `make bench-diff`) can later check
// fresh numbers against.
//
// Usage:
//
//	benchreport [-suite all|core|engine|sweep|scale] [-o BENCH_core.json]
//	            [-engine-o BENCH_engine.json] [-sweep-o BENCH_sweep.json]
//	            [-scale-o BENCH_scale.json] [-sizes 100,1000]
//	            [-events 10000,100000,1000000] [-sweep-workers 1,2,4,8]
//	            [-scale-sizes 100,1000,10000] [-scale-k 64]
//	            [-cell-counts 1,4,16,64] [-cell-pms 10000]
//	            [-kernel-workers-list 1,2,4,8] [-kernel-workers-pms 1000]
//	            [-large-pms 100000] [-benchtime 300ms]
//	benchreport -diff old.json new.json [-threshold 0.2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/oracle"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sim/schedheap"
	"repro/internal/spare"
	"repro/internal/stats"
	"repro/internal/vector"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// Report is the schema of BENCH_core.json.
type Report struct {
	Description string  `json:"description"`
	Go          string  `json:"go"`
	Generated   string  `json:"generated"`
	Benchtime   string  `json:"benchtime"`
	Scales      []Scale `json:"scales"`
}

// Scale holds one fleet size's measurements. Build, Round, and Arrival
// compare the kernel against the frozen pre-kernel oracle; Slab compares
// the kernel's batched aligned-slab row fill against the same kernel's
// scalar fill (MatrixOptions.DisableSlab) — current code both sides, the
// layout being the only difference.
type Scale struct {
	PMs     int         `json:"pms"`
	VMs     int         `json:"vms"`
	Build   Measurement `json:"build"`
	Round   Measurement `json:"round"`
	Arrival Measurement `json:"arrival"`
	Slab    Measurement `json:"slab"`
}

// Measurement compares the kernel path against the pre-kernel path on one
// operation. Alloc figures are per op, measured alongside the timing loop.
type Measurement struct {
	KernelNsOp     float64 `json:"kernel_ns_op"`
	NaiveNsOp      float64 `json:"naive_ns_op"`
	Speedup        float64 `json:"speedup"`
	KernelAllocsOp float64 `json:"kernel_allocs_op"`
	KernelBytesOp  float64 `json:"kernel_b_op"`
	NaiveAllocsOp  float64 `json:"naive_allocs_op"`
	NaiveBytesOp   float64 `json:"naive_b_op"`
	Iters          int     `json:"kernel_iters"`
	NaiveIters     int     `json:"naive_iters"`
}

// EngineReport is the schema of BENCH_engine.json.
type EngineReport struct {
	Description string        `json:"description"`
	Go          string        `json:"go"`
	Generated   string        `json:"generated"`
	Benchtime   string        `json:"benchtime"`
	Scales      []EngineScale `json:"scales"`
}

// EngineScale compares the calendar-queue wheel against the frozen binary
// heap on one total-event count of the churn workload.
type EngineScale struct {
	Events           int     `json:"events"`
	Resident         int     `json:"resident"`
	WheelNsEvent     float64 `json:"wheel_ns_event"`
	HeapNsEvent      float64 `json:"heap_ns_event"`
	Speedup          float64 `json:"speedup"`
	WheelEventsSec   float64 `json:"wheel_events_per_sec"`
	HeapEventsSec    float64 `json:"heap_events_per_sec"`
	WheelAllocsEvent float64 `json:"wheel_allocs_event"`
	WheelBytesEvent  float64 `json:"wheel_b_event"`
	Iters            int     `json:"wheel_iters"`
	HeapIters        int     `json:"heap_iters"`
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "-diff" {
		return runDiff(args[1:], out)
	}
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		suite       = fs.String("suite", "all", "which suite to run: all, core, engine, sweep, or scale")
		outPath     = fs.String("o", "BENCH_core.json", "core output JSON path (- for stdout)")
		enginePath  = fs.String("engine-o", "BENCH_engine.json", "engine output JSON path (- for stdout)")
		sweepPath   = fs.String("sweep-o", "BENCH_sweep.json", "sweep output JSON path (- for stdout)")
		scalePath   = fs.String("scale-o", "BENCH_scale.json", "scale output JSON path (- for stdout)")
		sizesFlag   = fs.String("sizes", "100,1000", "comma-separated PM counts (VMs = 2x)")
		eventsFlag  = fs.String("events", "10000,100000,1000000", "comma-separated total event counts")
		workersFlag = fs.String("sweep-workers", "1,2,4,8", "comma-separated sweep worker counts")
		scaleSizes  = fs.String("scale-sizes", "100,1000,10000", "comma-separated PM counts for the scale suite (VMs = 2x)")
		scaleK      = fs.Int("scale-k", 64, "candidate budget K for the scale suite's sparse side")
		cellCounts  = fs.String("cell-counts", "1,4,16,64", "comma-separated cell counts for the scale suite's multi-cell curve")
		cellPMs     = fs.Int("cell-pms", 10000, "fleet size for the multi-cell curve's end-to-end runs")
		kwList      = fs.String("kernel-workers-list", "1,2,4,8", "comma-separated kernel worker counts for the scale suite's parallelism curve")
		kwPMs       = fs.Int("kernel-workers-pms", 1000, "fleet size for the kernel-workers curve")
		largePMs    = fs.Int("large-pms", 100000, "fleet size for the sparse-only large scale point (0 disables it)")
		benchtime   = fs.Duration("benchtime", 300*time.Millisecond, "minimum measuring time per case")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *suite {
	case "all", "core", "engine", "sweep", "scale":
	default:
		return fmt.Errorf("bad -suite %q (want all, core, engine, sweep, or scale)", *suite)
	}
	if *scaleK < 1 {
		return fmt.Errorf("-scale-k must be positive (got %d)", *scaleK)
	}
	if *suite == "all" || *suite == "core" {
		if err := runCore(out, *outPath, *sizesFlag, *benchtime); err != nil {
			return err
		}
	}
	if *suite == "all" || *suite == "engine" {
		if err := runEngine(out, *enginePath, *eventsFlag, *benchtime); err != nil {
			return err
		}
	}
	if *suite == "all" || *suite == "sweep" {
		if err := runSweepSuite(out, *sweepPath, *workersFlag, *benchtime); err != nil {
			return err
		}
	}
	if *suite == "all" || *suite == "scale" {
		if err := runScaleSuite(out, *scalePath, *scaleSizes, *scaleK, *cellCounts, *cellPMs, *kwList, *kwPMs, *largePMs, *benchtime); err != nil {
			return err
		}
	}
	return nil
}

func runCore(out io.Writer, outPath, sizesFlag string, benchtime time.Duration) error {
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return err
	}
	rep := Report{
		Description: "factored probability kernel vs pre-kernel implementation: " +
			"matrix build, per-round incremental update (one Apply), arrival placement",
		Go:        runtime.Version(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Benchtime: benchtime.String(),
	}
	for _, pms := range sizes {
		sc, err := measureScale(out, pms, 2*pms, benchtime)
		if err != nil {
			return err
		}
		rep.Scales = append(rep.Scales, sc)
	}
	return writeJSON(out, outPath, rep)
}

func runEngine(out io.Writer, outPath, eventsFlag string, benchtime time.Duration) error {
	counts, err := parseSizes(eventsFlag)
	if err != nil {
		return err
	}
	rep := EngineReport{
		Description: "calendar-queue event scheduler vs frozen binary heap (internal/sim/schedheap): " +
			"steady-state churn, one reschedule per dispatch, pseudo-random delays",
		Go:        runtime.Version(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Benchtime: benchtime.String(),
	}
	for _, n := range counts {
		sc, err := measureEngineScale(out, n, benchtime)
		if err != nil {
			return err
		}
		rep.Scales = append(rep.Scales, sc)
	}
	return writeJSON(out, outPath, rep)
}

// SweepBenchReport is the schema of BENCH_sweep.json. Throughput scaling
// is bound by the host's cores, so the report records the CPU count the
// numbers were taken on: on a 1-CPU machine runs/sec stays flat across
// worker counts by physics, not by defect.
type SweepBenchReport struct {
	Description string       `json:"description"`
	Go          string       `json:"go"`
	Generated   string       `json:"generated"`
	Benchtime   string       `json:"benchtime"`
	CPUs        int          `json:"cpus"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Schemes     []string     `json:"schemes"`
	Seeds       int          `json:"seeds"`
	Nodes       int          `json:"nodes"`
	JobsPerSeed int          `json:"jobs_per_seed"`
	RunsPerOp   int          `json:"runs_per_sweep"`
	Identical   bool         `json:"merged_reports_identical"`
	Scales      []SweepScale `json:"scales"`
}

// SweepScale is one worker count's throughput measurement.
type SweepScale struct {
	Workers    int     `json:"workers"`
	SweepNsOp  float64 `json:"sweep_ns_op"`
	RunNsOp    float64 `json:"run_ns_op"`
	RunsPerSec float64 `json:"runs_per_sec"`
	Speedup    float64 `json:"speedup_vs_w1"`
	Iters      int     `json:"sweep_iters"`
}

// Fixed reduced configuration for the sweep suite: the paper's scheme trio
// over eight seeds on a 32-node Table II-mix fleet, each seed's week trace
// truncated to its first 500 jobs. Small enough that a full sweep is
// seconds, big enough that a run exercises the real consolidation path.
const (
	sweepBenchNodes = 32
	sweepBenchJobs  = 500
	sweepBenchSeeds = 8
)

func sweepBenchOptions(workers int) exp.SweepOptions {
	seeds := make([]int64, sweepBenchSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return exp.SweepOptions{
		Base: exp.Options{
			SpareForDynamic: true,
			Fleet:           func() *cluster.Datacenter { return cluster.TableIIFleetScaled(sweepBenchNodes) },
			TraceGen: func(seed int64) []workload.Request {
				jobs, _ := exp.WeekTrace(seed)
				if len(jobs) > sweepBenchJobs {
					jobs = jobs[:sweepBenchJobs]
				}
				return workload.ToRequests(jobs)
			},
		},
		Schemes: []string{"first-fit", "best-fit", "dynamic"},
		Seeds:   seeds,
		Workers: workers,
	}
}

// runSweepSuite measures exp.RunSweep throughput at each worker count and,
// first, asserts the deterministic-merge contract the sweep runner makes:
// the merged report must serialize byte-identically no matter how many
// workers ran it.
func runSweepSuite(out io.Writer, outPath, workersFlag string, benchtime time.Duration) error {
	workerCounts, err := parseWorkers(workersFlag)
	if err != nil {
		return err
	}
	rep := SweepBenchReport{
		Description: "replication sweep throughput (exp.RunSweep): paper scheme trio x 8 seeds, " +
			"32-node fleet, 500-job weeks; merged reports asserted byte-identical across worker counts",
		Go:          runtime.Version(),
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Benchtime:   benchtime.String(),
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Schemes:     sweepBenchOptions(1).Schemes,
		Seeds:       sweepBenchSeeds,
		Nodes:       sweepBenchNodes,
		JobsPerSeed: sweepBenchJobs,
		RunsPerOp:   3 * sweepBenchSeeds,
	}

	// Determinism gate before any timing: every worker count must merge
	// to the same bytes as workers=1.
	var reference []byte
	for _, w := range workerCounts {
		report, err := exp.RunSweep(sweepBenchOptions(w))
		if err != nil {
			return fmt.Errorf("sweep workers=%d: %w", w, err)
		}
		got, err := json.Marshal(report)
		if err != nil {
			return err
		}
		if reference == nil {
			reference = got
			continue
		}
		if string(got) != string(reference) {
			return fmt.Errorf("sweep workers=%d: merged report differs from workers=%d (determinism violated)",
				w, workerCounts[0])
		}
	}
	rep.Identical = true

	var base float64
	for _, w := range workerCounts {
		opts := sweepBenchOptions(w)
		s, err := measure(benchtime, func() error {
			_, err := exp.RunSweep(opts)
			return err
		})
		if err != nil {
			return err
		}
		sc := SweepScale{
			Workers:    w,
			SweepNsOp:  s.nsPerOp,
			RunNsOp:    s.nsPerOp / float64(rep.RunsPerOp),
			RunsPerSec: float64(rep.RunsPerOp) * 1e9 / s.nsPerOp,
			Iters:      s.iters,
		}
		if base == 0 {
			base = s.nsPerOp
		}
		sc.Speedup = base / s.nsPerOp
		rep.Scales = append(rep.Scales, sc)
		fmt.Fprintf(out, "workers=%-3d %7.2f runs/sec  (%.0fms/run, sweep %.2fs)  speedup %.2fx  [cpus=%d]\n",
			w, sc.RunsPerSec, sc.RunNsOp/1e6, sc.SweepNsOp/1e9, sc.Speedup, rep.CPUs)
	}
	return writeJSON(out, outPath, rep)
}

// ScaleReport is the schema of BENCH_scale.json. The sparse engine's
// contract is bit-identical decisions, so unlike the other suites both
// sides are current code: the report answers "what does candidate-set
// placement buy at fleet scale M", not "did behavior change".
type ScaleReport struct {
	Description string       `json:"description"`
	Go          string       `json:"go"`
	Generated   string       `json:"generated"`
	Benchtime   string       `json:"benchtime"`
	K           int          `json:"k"`
	CPUs        int          `json:"cpus"`
	Scales      []ScalePoint `json:"scales"`
	CellPMs     int          `json:"cell_pms"`
	CellVMs     int          `json:"cell_vms"`
	CellCurve   []CellPoint  `json:"cells"`

	// KernelWorkersPMs is the fixed fleet size the kernel-workers curve
	// runs on; WorkersCurve is that curve (one point per worker count).
	KernelWorkersPMs int           `json:"kernel_workers_pms"`
	WorkersCurve     []WorkerPoint `json:"kernel_workers"`
}

// WorkerPoint is one MatrixOptions.Workers setting's cost on the fixed
// fleet: dense build, sparse build, and a full steady-state consolidation
// pass. Every parallel point's results — matrices cell-for-cell, move
// streams move-for-move — are asserted identical to the workers=1 run
// before anything is timed, so the curve can only ever show scheduling
// cost, never a behavior change. On a single-core host the curve is flat
// by physics (the report records cpus for exactly that reason); the
// equivalence gate still exercises the real parallel code paths, because
// explicit worker counts spawn their goroutines regardless of cores.
type WorkerPoint struct {
	Workers         int     `json:"workers"`
	BuildNsOp       float64 `json:"build_ns_op"`
	SparseBuildNsOp float64 `json:"sparse_build_ns_op"`
	PassNsOp        float64 `json:"consolidate_ns_op"`
	Speedup         float64 `json:"speedup_vs_w1"`
	Iters           int     `json:"iters"`
}

// ScalePoint holds one fleet size's dense-vs-sparse measurements.
type ScalePoint struct {
	PMs     int          `json:"pms"`
	VMs     int          `json:"vms"`
	Build   ScaleMeasure `json:"build"`
	Round   ScaleMeasure `json:"round"`
	Arrival ScaleMeasure `json:"arrival"`
}

// CellPoint is one cell count's end-to-end simulation cost on the fixed
// multi-cell bench scenario. Every point's Result is asserted identical
// to the monolith's (cells=1) before timing — the curve quantifies the
// shared-clock orchestrator's overhead, never a behavior change. The
// _ns_op/_ns_event keys join `benchreport -diff` automatically.
type CellPoint struct {
	Cells      int     `json:"cells"`
	RunNsOp    float64 `json:"run_ns_op"`
	NsPerEvent float64 `json:"dispatch_ns_event"`
	Speedup    float64 `json:"speedup_vs_monolith"`
	Events     uint64  `json:"events"`
	Iters      int     `json:"iters"`
}

// ScaleMeasure compares the two engines on one operation. The timing keys
// end in _ns_op so `benchreport -diff` folds them into its regression
// check alongside the other suites' metrics.
type ScaleMeasure struct {
	DenseNsOp   float64 `json:"dense_ns_op"`
	SparseNsOp  float64 `json:"sparse_ns_op"`
	Speedup     float64 `json:"speedup"`
	DenseIters  int     `json:"dense_iters"`
	SparseIters int     `json:"sparse_iters"`
}

func newScaleMeasure(d, s sample) ScaleMeasure {
	m := ScaleMeasure{
		DenseNsOp: d.nsPerOp, SparseNsOp: s.nsPerOp,
		DenseIters: d.iters, SparseIters: s.iters,
	}
	if s.nsPerOp > 0 {
		m.Speedup = d.nsPerOp / s.nsPerOp
	}
	return m
}

func runScaleSuite(out io.Writer, outPath, sizesFlag string, k int, cellCountsFlag string, cellPMs int, kwCountsFlag string, kwPMs, largePMs int, benchtime time.Duration) error {
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return err
	}
	counts, err := parseWorkers(cellCountsFlag) // same grammar: positive ints
	if err != nil {
		return fmt.Errorf("-cell-counts: %w", err)
	}
	if cellPMs < 2 {
		return fmt.Errorf("-cell-pms must be at least 2 (got %d)", cellPMs)
	}
	for _, c := range counts {
		if c > cellPMs {
			return fmt.Errorf("-cell-counts entry %d exceeds -cell-pms %d: every cell needs at least one PM", c, cellPMs)
		}
	}
	kwCounts, err := parseWorkers(kwCountsFlag)
	if err != nil {
		return fmt.Errorf("-kernel-workers-list: %w", err)
	}
	if kwPMs < 2 {
		return fmt.Errorf("-kernel-workers-pms must be at least 2 (got %d)", kwPMs)
	}
	if largePMs < 0 {
		return fmt.Errorf("-large-pms must be >= 0 (got %d)", largePMs)
	}
	rep := ScaleReport{
		Description: "sparse candidate-set engine (MatrixOptions.CandidateK) vs dense kernel: " +
			"matrix build, per-round incremental update (one Apply), arrival placement; " +
			"decisions asserted identical before timing. cells[] is the multi-cell " +
			"engine's end-to-end curve on the fixed bench scenario, every cell count's " +
			"Result asserted identical to the monolith's. kernel_workers[] is the " +
			"in-run parallelism curve (MatrixOptions.Workers), every point's matrices " +
			"and move streams asserted bit-identical to workers=1 before timing; the " +
			"largest scales[] point is sparse-only (a dense matrix at that size would " +
			"not fit in memory), gated by a parallel-vs-serial sparse build diff",
		Go:        runtime.Version(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Benchtime: benchtime.String(),
		K:         k,
		CPUs:      runtime.NumCPU(),
		CellPMs:   cellPMs,
	}
	for _, pms := range sizes {
		sc, err := measureScalePoint(out, pms, 2*pms, k, benchtime)
		if err != nil {
			return err
		}
		rep.Scales = append(rep.Scales, sc)
	}
	if largePMs > 0 {
		sc, err := measureLargeScalePoint(out, largePMs, 2*largePMs, k, benchtime)
		if err != nil {
			return err
		}
		rep.Scales = append(rep.Scales, sc)
	}
	if err := measureWorkersCurve(out, &rep, kwCounts, kwPMs, k, benchtime); err != nil {
		return err
	}
	if err := measureCellCurve(out, &rep, counts, cellPMs, k, benchtime); err != nil {
		return err
	}
	return writeJSON(out, outPath, rep)
}

// measureWorkersCurve times the parallel kernels at each worker count on
// one fixed fleet. Gate first: the dense matrix, the sparse matrix, and a
// full consolidation move stream at every count must be bit-identical to
// the workers=1 run; only then is anything timed.
func measureWorkersCurve(out io.Writer, rep *ScaleReport, counts []int, pms, k int, benchtime time.Duration) error {
	factors := core.DefaultFactors()
	params := core.DefaultParams()
	const seed = 7
	nVMs := 2 * pms
	rep.KernelWorkersPMs = pms

	ctx, vms := benchState(pms, nVMs, seed)
	denseRef, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{Workers: 1})
	if err != nil {
		return err
	}
	sparseRef, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k, Workers: 1})
	if err != nil {
		return err
	}
	ctxRef, _ := benchState(pms, nVMs, seed)
	movesRef, err := core.ConsolidateWith(ctxRef, factors, params, core.MatrixOptions{Workers: 1})
	if err != nil {
		return err
	}
	for _, w := range counts {
		if w == 1 {
			continue
		}
		opts := core.MatrixOptions{Workers: w}
		dm, err := core.NewMatrixWith(ctx, factors, vms, opts)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		err = denseRef.Diff(dm)
		dm.Release()
		if err != nil {
			return fmt.Errorf("workers=%d: dense build diverges from serial (equivalence violated): %w", w, err)
		}
		sm, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k, Workers: w})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		if err := sparseRef.DiffSparse(sm); err != nil {
			return fmt.Errorf("workers=%d: sparse build diverges from serial (equivalence violated): %w", w, err)
		}
		ctxW, _ := benchState(pms, nVMs, seed)
		moves, err := core.ConsolidateWith(ctxW, factors, params, opts)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		if len(moves) != len(movesRef) {
			return fmt.Errorf("workers=%d: consolidation emitted %d moves, serial %d (equivalence violated)", w, len(moves), len(movesRef))
		}
		for i := range moves {
			if moves[i] != movesRef[i] {
				return fmt.Errorf("workers=%d: move %d is %+v, serial %+v (equivalence violated)", w, i, moves[i], movesRef[i])
			}
		}
	}
	denseRef.Release()

	var base float64
	for _, w := range counts {
		opts := core.MatrixOptions{Workers: w}
		d, err := measure(benchtime, func() error {
			m, err := core.NewMatrixWith(ctx, factors, vms, opts)
			if err != nil {
				return err
			}
			m.Release()
			return nil
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		s, err := measure(benchtime, func() error {
			_, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k, Workers: w})
			return err
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		// Settle once so the timed passes are steady-state evaluation,
		// then time the full consolidation pass.
		ctxW, _ := benchState(pms, nVMs, seed)
		if _, err := core.ConsolidateWith(ctxW, factors, params, opts); err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		p, err := measure(benchtime, func() error {
			_, err := core.ConsolidateWith(ctxW, factors, params, opts)
			return err
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		pt := WorkerPoint{
			Workers:         w,
			BuildNsOp:       d.nsPerOp,
			SparseBuildNsOp: s.nsPerOp,
			PassNsOp:        p.nsPerOp,
			Iters:           d.iters,
		}
		if base == 0 {
			base = d.nsPerOp
		}
		pt.Speedup = base / d.nsPerOp
		rep.WorkersCurve = append(rep.WorkersCurve, pt)
		fmt.Fprintf(out, "workers=%-3d pms=%-6d build %8.2fms  sparse-build %8.2fms  pass %8.2fms  (%.2fx vs workers=%d)\n",
			w, pms, pt.BuildNsOp/1e6, pt.SparseBuildNsOp/1e6, pt.PassNsOp/1e6, pt.Speedup, counts[0])
	}
	return nil
}

// measureLargeScalePoint is the sparse-only scale point: at 100k PMs a
// dense matrix (rows x cols float64) would need hundreds of gigabytes, so
// only the candidate-set engine is measured and the equivalence gate is a
// parallel-vs-serial sparse comparison instead of a sparse-vs-dense one.
// The dense fields stay zero, which -diff skips.
func measureLargeScalePoint(out io.Writer, pms, nVMs, k int, benchtime time.Duration) (ScalePoint, error) {
	factors := core.DefaultFactors()
	const seed = 7
	sc := ScalePoint{PMs: pms}
	ctx, vms := benchStateLarge(pms, nVMs, seed)
	sc.VMs = len(vms)

	// Equivalence gate: an explicitly parallel build must match the
	// serial build tracker-for-tracker before anything is timed.
	ref, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k, Workers: 1})
	if err != nil {
		return sc, err
	}
	par, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k, Workers: 4})
	if err != nil {
		return sc, err
	}
	if err := ref.DiffSparse(par); err != nil {
		return sc, fmt.Errorf("pms=%d: parallel sparse build diverges from serial (equivalence violated): %w", pms, err)
	}

	s, err := measure(benchtime, func() error {
		m, err := core.NewSparseMatrix(ctx, factors, vms, core.MatrixOptions{CandidateK: k})
		if err != nil {
			return err
		}
		m.Best()
		return nil
	})
	if err != nil {
		return sc, err
	}
	sc.Build = ScaleMeasure{SparseNsOp: s.nsPerOp, SparseIters: s.iters}

	// Round: Best + Apply ping-pong on the parallel-built matrix,
	// mirroring measureScalePoint's sparse round.
	r, c, _, ok := par.Best()
	if !ok {
		return sc, fmt.Errorf("pms=%d: no positive-gain move in the sparse bench state", pms)
	}
	host := par.VM(c).Host
	origin := -1
	for i := 0; i < par.Rows(); i++ {
		if par.PM(i).ID == host {
			origin = i
			break
		}
	}
	if origin < 0 {
		return sc, fmt.Errorf("pms=%d: host of best column not in the sparse matrix", pms)
	}
	s, err = measure(benchtime, func() error {
		par.Best()
		if err := par.Apply(r, c); err != nil {
			return err
		}
		par.Best()
		return par.Apply(origin, c)
	})
	if err != nil {
		return sc, err
	}
	sc.Round = ScaleMeasure{SparseNsOp: halve(s).nsPerOp, SparseIters: s.iters}

	// Arrival: the dense side here is the matrix-free BestPlacement scan
	// (O(active PMs), affordable at any size), so the usual dense-vs-
	// sparse decision gate still applies.
	arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
	dPM := core.BestPlacement(ctx, factors, arrival)
	sPM := core.BestPlacementWith(ctx, factors, arrival, core.MatrixOptions{CandidateK: k})
	if dPM == nil || dPM != sPM {
		return sc, fmt.Errorf("pms=%d: sparse arrival PM differs from dense (equivalence violated)", pms)
	}
	d, err := measure(benchtime, func() error {
		if core.BestPlacement(ctx, factors, arrival) == nil {
			return fmt.Errorf("no placement found")
		}
		return nil
	})
	if err != nil {
		return sc, err
	}
	s, err = measure(benchtime, func() error {
		if core.BestPlacementWith(ctx, factors, arrival, core.MatrixOptions{CandidateK: k}) == nil {
			return fmt.Errorf("no placement found")
		}
		return nil
	})
	if err != nil {
		return sc, err
	}
	sc.Arrival = newScaleMeasure(d, s)

	fmt.Fprintf(out, "pms=%-6d vms=%-6d k=%-3d sparse-only: build %.2fms  round %.1fus  arrival %.2fx (%.1fus vs %.1fus)\n",
		sc.PMs, sc.VMs, k,
		sc.Build.SparseNsOp/1e6, sc.Round.SparseNsOp/1e3,
		sc.Arrival.Speedup, sc.Arrival.DenseNsOp/1e3, sc.Arrival.SparseNsOp/1e3)
	return sc, nil
}

// cellBenchTrace is the multi-cell curve's fixed workload: nVMs staggered
// single-core requests, a third long-lived, the rest short — the same
// fragmenting shape the consolidation tests use, scaled so the fleet stays
// sparsely loaded (the curve measures orchestrator overhead, and the
// fleet-size-dependent costs — arrival scans, spare planning, partition
// bookkeeping — are what sharding is supposed to keep in check).
func cellBenchTrace(nVMs int) []workload.Request {
	rs := make([]workload.Request, 0, nVMs)
	for i := 0; i < nVMs; i++ {
		run := 1800.0
		if i%3 == 0 {
			run = 12000
		}
		rs = append(rs, workload.Request{
			JobID: i, Submit: float64(i) * 6, CPUCores: 1, MemoryGB: 0.5,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	return rs
}

func cellBenchConfig(cells, pms, k, nVMs int) sim.Config {
	d := policy.NewDynamic()
	d.Opts.CandidateK = k
	sc := spare.DefaultConfig()
	return sim.Config{
		DC:        cluster.TableIIFleetScaled(pms),
		Placer:    d,
		Requests:  cellBenchTrace(nVMs),
		Spare:     &sc,
		WarmStart: 8,
		Cells:     cells,
	}
}

// measureCellCurve runs the fixed scenario end to end at every cell count.
// Gate first: each count's Result must equal the monolith's exactly (the
// bit-exactness contract at fleet scale); only then is anything timed.
func measureCellCurve(out io.Writer, rep *ScaleReport, counts []int, pms, k int, benchtime time.Duration) error {
	nVMs := pms / 5
	rep.CellVMs = nVMs
	countEvents := func(cells int) (uint64, *sim.Result, error) {
		m, err := sim.New(cellBenchConfig(cells, pms, k, nVMs))
		if err != nil {
			return 0, nil, err
		}
		for {
			ok, err := m.Step()
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				break
			}
		}
		res, err := m.Finish()
		return m.Dispatched(), res, err
	}

	// The reference is always the monolith, whether or not 1 is in the
	// requested curve.
	refEvents, refRes, err := countEvents(1)
	if err != nil {
		return fmt.Errorf("cells=1: %w", err)
	}
	for _, c := range counts {
		if c == 1 {
			continue
		}
		ev, res, err := countEvents(c)
		if err != nil {
			return fmt.Errorf("cells=%d: %w", c, err)
		}
		if res.Summary != refRes.Summary || ev != refEvents {
			return fmt.Errorf("cells=%d: result differs from the monolith's (equivalence violated): %d events vs %d, %+v vs %+v",
				c, ev, refEvents, res.Summary, refRes.Summary)
		}
	}

	var base float64
	for _, c := range counts {
		cfg := cellBenchConfig(c, pms, k, nVMs)
		s, err := measure(benchtime, func() error {
			_, err := sim.Run(cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("cells=%d: %w", c, err)
		}
		pt := CellPoint{
			Cells:      c,
			RunNsOp:    s.nsPerOp,
			NsPerEvent: s.nsPerOp / float64(refEvents),
			Events:     refEvents,
			Iters:      s.iters,
		}
		if base == 0 {
			base = s.nsPerOp
		}
		pt.Speedup = base / s.nsPerOp
		rep.CellCurve = append(rep.CellCurve, pt)
		fmt.Fprintf(out, "cells=%-4d pms=%-6d %8.1fms/run  %7.0fns/event  (%d events, %.2fx vs cells=%d)\n",
			c, pms, pt.RunNsOp/1e6, pt.NsPerEvent, refEvents, pt.Speedup, counts[0])
	}
	return nil
}

func measureScalePoint(out io.Writer, pms, nVMs, k int, benchtime time.Duration) (ScalePoint, error) {
	factors := core.DefaultFactors()
	sparseOpts := core.MatrixOptions{CandidateK: k}
	const seed = 7
	sc := ScalePoint{PMs: pms}

	// Equivalence gate before any timing: every tracker, probability, and
	// the argmax must agree cell-for-cell on the bench state.
	ctx, vms := benchState(pms, nVMs, seed)
	sc.VMs = len(vms)
	{
		dm, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return sc, err
		}
		sm, err := core.NewSparseMatrix(ctx, factors, vms, sparseOpts)
		if err != nil {
			dm.Release()
			return sc, err
		}
		err = sm.DiffDense(dm)
		dm.Release()
		if err != nil {
			return sc, fmt.Errorf("pms=%d: sparse/dense divergence: %w", pms, err)
		}
	}

	// Build: construct each engine's state from scratch. The sparse side
	// reuses the context's candidate index across iterations (an O(M)
	// staleness sweep each build), which is exactly how consolidation
	// rounds amortize it in a real run.
	d, err := measure(benchtime, func() error {
		m, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return err
		}
		m.Best()
		m.Release()
		return nil
	})
	if err != nil {
		return sc, err
	}
	s, err := measure(benchtime, func() error {
		m, err := core.NewSparseMatrix(ctx, factors, vms, sparseOpts)
		if err != nil {
			return err
		}
		m.Best()
		return nil
	})
	if err != nil {
		return sc, err
	}
	sc.Build = newScaleMeasure(d, s)

	// Round: the incremental work of one Algorithm 1 round — the argmax
	// lookup plus the Apply repair — ping-ponging the best move so the
	// state stays bounded (mirroring the core suite). Best is charged to
	// both sides: the dense engine pays a heap repair inside Apply and an
	// O(1) root read, the sparse engine pays no heap and a linear argmax.
	{
		ctx, vms := benchState(pms, nVMs, seed)
		dm, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return sc, err
		}
		r, c, _, ok := dm.Best()
		if !ok {
			return sc, fmt.Errorf("pms=%d: no positive-gain move in the bench state", pms)
		}
		origin, _ := dm.RowOf(dm.VM(c).Host)
		d, err = measure(benchtime, func() error {
			dm.Best()
			if err := dm.Apply(r, c); err != nil {
				return err
			}
			dm.Best()
			return dm.Apply(origin, c)
		})
		if err != nil {
			return sc, err
		}
		dm.Release()
	}
	{
		ctx, vms := benchState(pms, nVMs, seed)
		sm, err := core.NewSparseMatrix(ctx, factors, vms, sparseOpts)
		if err != nil {
			return sc, err
		}
		r, c, _, ok := sm.Best()
		if !ok {
			return sc, fmt.Errorf("pms=%d: no positive-gain move in the sparse bench state", pms)
		}
		host := sm.VM(c).Host
		origin := -1
		for i := 0; i < sm.Rows(); i++ {
			if sm.PM(i).ID == host {
				origin = i
				break
			}
		}
		if origin < 0 {
			return sc, fmt.Errorf("pms=%d: host of best column not in the sparse matrix", pms)
		}
		s, err = measure(benchtime, func() error {
			sm.Best()
			if err := sm.Apply(r, c); err != nil {
				return err
			}
			sm.Best()
			return sm.Apply(origin, c)
		})
		if err != nil {
			return sc, err
		}
	}
	// Halve: one measured op is two Applies (there and back).
	sc.Round = newScaleMeasure(halve(d), halve(s))

	// Arrival: place one new VM, full dense ranking vs the shortlist walk.
	{
		ctx, _ := benchState(pms, nVMs, seed)
		arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
		dPM := core.BestPlacement(ctx, factors, arrival)
		sPM := core.BestPlacementWith(ctx, factors, arrival, sparseOpts)
		if dPM == nil || dPM != sPM {
			return sc, fmt.Errorf("pms=%d: sparse arrival PM differs from dense (equivalence violated)", pms)
		}
		d, err = measure(benchtime, func() error {
			if core.BestPlacement(ctx, factors, arrival) == nil {
				return fmt.Errorf("no placement found")
			}
			return nil
		})
		if err != nil {
			return sc, err
		}
		s, err = measure(benchtime, func() error {
			if core.BestPlacementWith(ctx, factors, arrival, sparseOpts) == nil {
				return fmt.Errorf("no placement found")
			}
			return nil
		})
		if err != nil {
			return sc, err
		}
	}
	sc.Arrival = newScaleMeasure(d, s)

	fmt.Fprintf(out, "pms=%-6d vms=%-6d k=%-3d build %.2fx (%.3fms vs %.3fms)  round %.2fx (%.1fus vs %.1fus)  arrival %.2fx (%.1fus vs %.1fus)\n",
		sc.PMs, sc.VMs, k,
		sc.Build.Speedup, sc.Build.DenseNsOp/1e6, sc.Build.SparseNsOp/1e6,
		sc.Round.Speedup, sc.Round.DenseNsOp/1e3, sc.Round.SparseNsOp/1e3,
		sc.Arrival.Speedup, sc.Arrival.DenseNsOp/1e3, sc.Arrival.SparseNsOp/1e3)
	return sc, nil
}

// parseWorkers parses the -sweep-workers list; unlike parseSizes it
// accepts 1 (the sequential baseline every speedup is relative to).
func parseWorkers(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker entry %q", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("empty -sweep-workers list")
	}
	return counts, nil
}

func writeJSON(out io.Writer, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = out.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size entry %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// benchState builds a deterministic mid-simulation snapshot of a Table
// II-mix fleet: all PMs on, VMs with varied demand shapes and runtimes
// placed first-fit, clock at two hours.
func benchState(pmCount, nVMs int, seed int64) (*core.Context, []*cluster.VM) {
	dc := cluster.TableIIFleetScaled(pmCount)
	for _, pm := range dc.PMs() {
		pm.State = cluster.PMOn
	}
	rng := stats.NewRand(seed)
	mems := []float64{0.25, 0.5, 1, 2}
	var vms []*cluster.VM
	for id := 1; id <= nVMs; id++ {
		demand := vector.New(float64(1+rng.Intn(2)), mems[rng.Intn(len(mems))])
		est := float64(600 + rng.Intn(86400))
		vm := cluster.NewVM(cluster.VMID(id), demand, est, est, 0)
		placed := false
		for _, pm := range dc.PMs() {
			if pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					panic(err)
				}
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		dc.SetVMState(vm, cluster.VMRunning)
		vm.StartTime = float64(rng.Intn(7000))
		vms = append(vms, vm)
	}
	return core.NewContext(dc).At(7200), vms
}

// benchStateLarge is benchState with round-robin placement instead of
// first-fit: at 100k PMs the first-fit scan is quadratic in the fleet
// (every VM walks the filled prefix), while round-robin is O(VMs) and
// spreads load evenly — which also leaves consolidation headroom, so the
// Best/Apply round measurement has real moves to make.
func benchStateLarge(pmCount, nVMs int, seed int64) (*core.Context, []*cluster.VM) {
	dc := cluster.TableIIFleetScaled(pmCount)
	pms := dc.PMs()
	for _, pm := range pms {
		pm.State = cluster.PMOn
	}
	rng := stats.NewRand(seed)
	mems := []float64{0.25, 0.5, 1, 2}
	var vms []*cluster.VM
	for id := 1; id <= nVMs; id++ {
		demand := vector.New(float64(1+rng.Intn(2)), mems[rng.Intn(len(mems))])
		est := float64(600 + rng.Intn(86400))
		vm := cluster.NewVM(cluster.VMID(id), demand, est, est, 0)
		pm := pms[(id-1)%len(pms)]
		if !pm.CanHost(vm.Demand) {
			continue
		}
		if err := pm.Host(vm); err != nil {
			panic(err)
		}
		dc.SetVMState(vm, cluster.VMRunning)
		vm.StartTime = float64(rng.Intn(7000))
		vms = append(vms, vm)
	}
	return core.NewContext(dc).At(7200), vms
}

// sample is one measured operation: mean wall time and mean allocation
// rate per call.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	bytesPerOp  float64
	iters       int
}

// measure repeats op until minDur has elapsed (after one discarded warm-up
// call) and returns the mean wall time and heap-allocation rate per call.
// The alloc figures span the whole loop (runtime.MemStats deltas), so they
// include whatever the runtime allocates on op's behalf — which is the
// number that matters for steady-state GC pressure.
func measure(minDur time.Duration, op func() error) (sample, error) {
	if err := op(); err != nil {
		return sample{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total time.Duration
	iters := 0
	for total < minDur {
		start := time.Now()
		if err := op(); err != nil {
			return sample{}, err
		}
		total += time.Since(start)
		iters++
	}
	runtime.ReadMemStats(&after)
	return sample{
		nsPerOp:     float64(total.Nanoseconds()) / float64(iters),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		bytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		iters:       iters,
	}, nil
}

func measureScale(out io.Writer, pms, nVMs int, benchtime time.Duration) (Scale, error) {
	factors := core.DefaultFactors()
	const seed = 7
	sc := Scale{PMs: pms}

	// Build: construct the matrix from scratch. Neither path mutates the
	// datacenter, so one state serves all iterations of both.
	ctx, vms := benchState(pms, nVMs, seed)
	sc.VMs = len(vms)
	var kernelBest, naiveBest [3]float64
	k, err := measure(benchtime, func() error {
		m, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return err
		}
		r, c, g, _ := m.Best()
		kernelBest = [3]float64{float64(r), float64(c), g}
		m.Release()
		return nil
	})
	if err != nil {
		return sc, err
	}
	n, err := measure(benchtime, func() error {
		m, err := oracle.NewMatrix(ctx, factors, vms)
		if err != nil {
			return err
		}
		r, c, g, _ := m.Best()
		naiveBest = [3]float64{float64(r), float64(c), g}
		return nil
	})
	if err != nil {
		return sc, err
	}
	if kernelBest != naiveBest {
		return sc, fmt.Errorf("pms=%d: kernel Best %v != naive Best %v (equivalence violated)",
			pms, kernelBest, naiveBest)
	}
	sc.Build = newMeasurement(k, n)

	// Round: the incremental work of one Algorithm 1 round (Apply = two
	// row refills plus tracker and heap maintenance), ping-ponging the
	// best move so the state stays bounded. Each path mutates its own
	// identical copy of the fleet.
	{
		ctx, vms := benchState(pms, nVMs, seed)
		m, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return sc, err
		}
		r, c, _, ok := m.Best()
		if !ok {
			return sc, fmt.Errorf("pms=%d: no positive-gain move in the bench state", pms)
		}
		col := m.VM(c)
		origin, _ := m.RowOf(col.Host)
		k, err = measure(benchtime, func() error {
			if err := m.Apply(r, c); err != nil {
				return err
			}
			return m.Apply(origin, c)
		})
		if err != nil {
			return sc, err
		}
	}
	{
		ctx, vms := benchState(pms, nVMs, seed)
		m, err := oracle.NewMatrix(ctx, factors, vms)
		if err != nil {
			return sc, err
		}
		r, c, _, ok := m.Best()
		if !ok {
			return sc, fmt.Errorf("pms=%d: no positive-gain move in the naive bench state", pms)
		}
		origin := m.CurRow(c)
		n, err = measure(benchtime, func() error {
			if err := m.Apply(r, c); err != nil {
				return err
			}
			return m.Apply(origin, c)
		})
		if err != nil {
			return sc, err
		}
	}
	// Halve: one measured op is two Applies (there and back).
	sc.Round = newMeasurement(halve(k), halve(n))

	// Arrival: place one new VM.
	{
		ctx, _ := benchState(pms, nVMs, seed)
		arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)
		k, err = measure(benchtime, func() error {
			if core.BestPlacement(ctx, factors, arrival) == nil {
				return fmt.Errorf("no placement found")
			}
			return nil
		})
		if err != nil {
			return sc, err
		}
		var kPM, nPM *cluster.PM
		kPM = core.BestPlacement(ctx, factors, arrival)
		n, err = measure(benchtime, func() error {
			if oracle.BestPlacement(ctx, factors, arrival) == nil {
				return fmt.Errorf("no placement found")
			}
			return nil
		})
		if err != nil {
			return sc, err
		}
		nPM = oracle.BestPlacement(ctx, factors, arrival)
		if kPM != nPM {
			return sc, fmt.Errorf("pms=%d: arrival kernel PM %d != naive PM %d", pms, kPM.ID, nPM.ID)
		}
	}
	sc.Arrival = newMeasurement(k, n)

	// Slab: the row fill alone, batched aligned-slab path ("kernel")
	// against the same kernel's scalar fill ("naive", DisableSlab). The
	// rows are asserted bit-identical before timing; RefillRow rotates
	// through the rows so the measurement averages over hosted-set sizes.
	{
		ctx, vms := benchState(pms, nVMs, seed)
		slabM, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{})
		if err != nil {
			return sc, err
		}
		scalM, err := core.NewMatrixWith(ctx, factors, vms, core.MatrixOptions{DisableSlab: true})
		if err != nil {
			return sc, err
		}
		for r := 0; r < slabM.Rows(); r++ {
			for c := 0; c < slabM.Cols(); c++ {
				if slabM.P(r, c) != scalM.P(r, c) {
					return sc, fmt.Errorf("pms=%d: slab p[%d][%d]=%g != scalar %g (equivalence violated)",
						pms, r, c, slabM.P(r, c), scalM.P(r, c))
				}
			}
		}
		rows := slabM.Rows()
		kr, nr := 0, 0
		k, err = measure(benchtime, func() error { slabM.RefillRow(kr % rows); kr++; return nil })
		if err != nil {
			return sc, err
		}
		n, err = measure(benchtime, func() error { scalM.RefillRow(nr % rows); nr++; return nil })
		if err != nil {
			return sc, err
		}
		slabM.Release()
		scalM.Release()
	}
	sc.Slab = newMeasurement(k, n)

	fmt.Fprintf(out, "pms=%-6d vms=%-6d build %.2fx (%.3fms vs %.3fms)  round %.2fx (%.3fms vs %.3fms)  arrival %.2fx (%.1fus vs %.1fus, %.1f allocs)  slab %.2fx (%.1fus vs %.1fus)\n",
		sc.PMs, sc.VMs,
		sc.Build.Speedup, sc.Build.KernelNsOp/1e6, sc.Build.NaiveNsOp/1e6,
		sc.Round.Speedup, sc.Round.KernelNsOp/1e6, sc.Round.NaiveNsOp/1e6,
		sc.Arrival.Speedup, sc.Arrival.KernelNsOp/1e3, sc.Arrival.NaiveNsOp/1e3,
		sc.Arrival.KernelAllocsOp,
		sc.Slab.Speedup, sc.Slab.KernelNsOp/1e3, sc.Slab.NaiveNsOp/1e3)
	return sc, nil
}

func halve(s sample) sample {
	s.nsPerOp /= 2
	s.allocsPerOp /= 2
	s.bytesPerOp /= 2
	return s
}

func newMeasurement(k, n sample) Measurement {
	m := Measurement{
		KernelNsOp: k.nsPerOp, NaiveNsOp: n.nsPerOp,
		KernelAllocsOp: k.allocsPerOp, KernelBytesOp: k.bytesPerOp,
		NaiveAllocsOp: n.allocsPerOp, NaiveBytesOp: n.bytesPerOp,
		Iters: k.iters, NaiveIters: n.iters,
	}
	if k.nsPerOp > 0 {
		m.Speedup = n.nsPerOp / k.nsPerOp
	}
	return m
}

// churnDelay is the deterministic delay stream both scheduler
// implementations consume (xorshift64, same seed, same mapping).
type churnDelay uint64

func (d *churnDelay) next() float64 {
	x := uint64(*d)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*d = churnDelay(x)
	return float64(x%1024)/16 + 0.001
}

const churnSeed = 0x243F6A8885A308D3

// residentFor sizes the live event set for a total-event count: 1% of the
// total, clamped to [64, 10k] (a simulation's pending set grows far slower
// than its dispatch count).
func residentFor(events int) int {
	r := events / 100
	if r < 64 {
		r = 64
	}
	if r > 10_000 {
		r = 10_000
	}
	return r
}

// wheelChurn dispatches exactly total events through the calendar-queue
// engine: a resident set of self-rescheduling callbacks with pseudo-random
// delays, the same workload the heap side runs.
func wheelChurn(resident, total int) error {
	var e sim.Engine
	d := churnDelay(churnSeed)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+e.Pending() < total {
			e.ScheduleAfter(d.next(), fire)
		}
	}
	for i := 0; i < resident && i < total; i++ {
		e.ScheduleAfter(d.next(), fire)
	}
	e.Run()
	if fired != total {
		return fmt.Errorf("wheel dispatched %d of %d events", fired, total)
	}
	return nil
}

// heapChurn is wheelChurn against the frozen binary-heap scheduler.
func heapChurn(resident, total int) error {
	var e schedheap.Engine
	d := churnDelay(churnSeed)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+e.Pending() < total {
			e.ScheduleAfter(d.next(), fire)
		}
	}
	for i := 0; i < resident && i < total; i++ {
		e.ScheduleAfter(d.next(), fire)
	}
	e.Run()
	if fired != total {
		return fmt.Errorf("heap dispatched %d of %d events", fired, total)
	}
	return nil
}

func measureEngineScale(out io.Writer, events int, benchtime time.Duration) (EngineScale, error) {
	resident := residentFor(events)
	sc := EngineScale{Events: events, Resident: resident}
	w, err := measure(benchtime, func() error { return wheelChurn(resident, events) })
	if err != nil {
		return sc, err
	}
	h, err := measure(benchtime, func() error { return heapChurn(resident, events) })
	if err != nil {
		return sc, err
	}
	ev := float64(events)
	sc.WheelNsEvent = w.nsPerOp / ev
	sc.HeapNsEvent = h.nsPerOp / ev
	if sc.WheelNsEvent > 0 {
		sc.Speedup = sc.HeapNsEvent / sc.WheelNsEvent
	}
	sc.WheelEventsSec = 1e9 / sc.WheelNsEvent
	sc.HeapEventsSec = 1e9 / sc.HeapNsEvent
	sc.WheelAllocsEvent = w.allocsPerOp / ev
	sc.WheelBytesEvent = w.bytesPerOp / ev
	sc.Iters, sc.HeapIters = w.iters, h.iters

	fmt.Fprintf(out, "events=%-8d wheel %.1fns/ev (%.2fM ev/s, %.4f allocs/ev)  heap %.1fns/ev (%.2fM ev/s)  speedup %.2fx\n",
		events, sc.WheelNsEvent, sc.WheelEventsSec/1e6, sc.WheelAllocsEvent,
		sc.HeapNsEvent, sc.HeapEventsSec/1e6, sc.Speedup)
	return sc, nil
}

// runDiff compares two benchreport JSON files (either schema) and warns
// about per-operation timing regressions beyond the threshold. It never
// fails the build — the numbers are machine-local — but gives CI and
// humans a one-command regression check (`make bench-diff`).
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchreport -diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.20, "relative slowdown that counts as a regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchreport -diff [-threshold 0.2] old.json new.json")
	}
	oldM, err := loadMetrics(fs.Arg(0))
	if err != nil {
		return err
	}
	newM, err := loadMetrics(fs.Arg(1))
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		if _, ok := newM[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no comparable metrics between %s and %s", fs.Arg(0), fs.Arg(1))
	}
	regressions := 0
	for _, k := range keys {
		o, n := oldM[k], newM[k]
		if o <= 0 {
			continue
		}
		rel := n/o - 1
		switch {
		case rel > *threshold:
			regressions++
			fmt.Fprintf(out, "WARN  %-40s %12.1f -> %12.1f ns  (%+.0f%%)\n", k, o, n, rel*100)
		case rel < -*threshold:
			fmt.Fprintf(out, "good  %-40s %12.1f -> %12.1f ns  (%+.0f%%)\n", k, o, n, rel*100)
		}
	}
	if regressions == 0 {
		fmt.Fprintf(out, "bench-diff: %d metrics within %.0f%% of %s\n",
			len(keys), *threshold*100, fs.Arg(0))
	} else {
		fmt.Fprintf(out, "bench-diff: %d of %d metrics regressed more than %.0f%%\n",
			regressions, len(keys), *threshold*100)
	}
	return nil
}

// loadMetrics flattens a benchreport JSON file into metric -> ns-per-op
// entries. It is schema-agnostic: every numeric leaf whose key ends in
// _ns_op or _ns_event is collected, keyed by scale (pms=N, events=N, or
// workers=N) and field path, so core, engine, and sweep reports all work
// and future fields join automatically.
func loadMetrics(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Scales  []map[string]any `json:"scales"`
		Cells   []map[string]any `json:"cells"`
		Workers []map[string]any `json:"kernel_workers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	metrics := make(map[string]float64)
	for _, scale := range append(append(doc.Scales, doc.Cells...), doc.Workers...) {
		prefix := ""
		if v, ok := scale["cells"].(float64); ok {
			prefix = fmt.Sprintf("cells=%d", int(v))
		} else if v, ok := scale["pms"].(float64); ok {
			prefix = fmt.Sprintf("pms=%d", int(v))
		} else if v, ok := scale["events"].(float64); ok {
			prefix = fmt.Sprintf("events=%d", int(v))
		} else if v, ok := scale["workers"].(float64); ok {
			prefix = fmt.Sprintf("workers=%d", int(v))
		}
		var walk func(string, any)
		walk = func(key string, v any) {
			switch t := v.(type) {
			case map[string]any:
				for k, sub := range t {
					walk(key+"/"+k, sub)
				}
			case float64:
				if strings.HasSuffix(key, "_ns_op") || strings.HasSuffix(key, "_ns_event") {
					metrics[prefix+key] = t
				}
			}
		}
		for k, v := range scale {
			walk("/"+k, v)
		}
	}
	if len(metrics) == 0 {
		return nil, fmt.Errorf("%s: no timing metrics found", path)
	}
	return metrics, nil
}
