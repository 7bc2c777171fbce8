// Command sweep runs a replication sweep: the full scheme x seed cross
// product, each (scheme, seed) pair one independent simulation, scheduled
// across a work-stealing worker pool (exp.RunSweep) and merged into a
// deterministic report. One seed is one sample — policy comparisons only
// mean something across replications, and this command is the batch tool
// that produces them: per-scheme mean/stddev/min/max of the week energy,
// active-server, migration, and queueing metrics.
//
// Usage:
//
//	sweep [-schemes first-fit,best-fit,dynamic] [-reps 8 | -seeds 1,4,9]
//	      [-workers N] [-nodes 100] [-jobs 0] [-spare] [-sparse K] [-cells C]
//	      [-kernel-workers W] [-tournament]
//	      [-o report.json] [-cpuprofile cpu.out] [-memprofile mem.out] [-v]
//
// Each seed generates its own synthetic week (the Figure 2 calibration),
// shared read-only by every scheme replaying it; -jobs truncates each week
// to its first N jobs for quick sweeps. -workers bounds the concurrent
// runs (default GOMAXPROCS; must be positive); the merged report — and
// therefore the -o JSON — is byte-identical for every worker count, so a
// sweep's output can be compared across machines regardless of their core
// counts. -sparse K sets the candidate budget of the dynamic scheme's
// placement engine: the candidate-set engine at K = 64 by default, the
// dense kernel with -sparse 0 (bit-identical decisions, see README
// "Sparse placement"). -cells C partitions every
// run's fleet into C cells advanced by the shared-clock orchestrator (see
// README "Multi-cell runs"); results are bit-identical to -cells 1, so the
// report JSON is byte-identical across cell counts.
//
// -kernel-workers W bounds the goroutines the dynamic scheme's placement
// kernels fan out on inside each run (see README "Parallel kernels" and
// DESIGN.md §15). The replication workers and the in-run kernels share
// one process-wide goroutine budget: with -kernel-workers 0 (auto) a
// saturated sweep keeps the kernels serial, while an explicit W > 1 is
// honored per run. Results — and the report JSON — are bit-identical at
// every setting.
//
// -tournament scores the roster as a policy tournament instead of printing
// raw aggregates: each policy is ranked per objective (mean week energy,
// mean queued fraction, mean migrations) and the ranks combine by Borda
// count, lower total winning (see README "Policy lab"). Without -schemes
// the tournament fields the five-policy lab roster (first-fit, best-fit,
// dynamic, overbook, dynamic-adaptive); -o writes the full standings plus
// the underlying sweep as JSON. Scheme names are validated up front, and
// -sparse/-kernel-workers are rejected unless the roster includes a
// dynamic-family scheme they could apply to.
//
// The -cpuprofile and -memprofile flags capture runtime/pprof profiles of
// the whole sweep for `go tool pprof`, mirroring cmd/dvmpsim; with more
// than one worker the CPU profile shows the placement hot path replicated
// across worker goroutines, which is how slab-kernel and scheduler costs
// are attributed under the parallel load (see README "Profiling").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		schemesFlag = fs.String("schemes", "", "comma-separated schemes (default: the paper's trio)")
		reps        = fs.Int("reps", 8, "number of replications; seeds are 1..reps")
		seedsFlag   = fs.String("seeds", "", "explicit comma-separated seed list (overrides -reps)")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs")
		nodes       = fs.Int("nodes", 100, "fleet size (Table II fast:slow mix is preserved)")
		jobCount    = fs.Int("jobs", 0, "truncate each seed's week to the first N jobs (0 = all)")
		useSpare    = fs.Bool("spare", true, "attach the spare-server controller to the dynamic scheme")
		sparseK     = fs.Int("sparse", core.DefaultCandidateK, "candidate budget K for the dynamic scheme's sparse placement engine (default on; 0 = the dense kernel, bit-identical decisions)")
		cells       = fs.Int("cells", 1, "partition each run's fleet into this many cells (bit-identical results; 1 = monolithic)")
		kernelW     = fs.Int("kernel-workers", 0, "goroutines the dynamic scheme's placement kernels fan out on per run (0 = auto under the shared budget, 1 = serial; bit-identical results)")
		outPath     = fs.String("o", "", "write the merged report as JSON to this file (- for stdout)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf     = fs.String("memprofile", "", "write an end-of-sweep heap profile to this file")
		tournament  = fs.Bool("tournament", false, "score the schemes as a policy tournament: per-objective ranks (energy, violations, migrations) combined by Borda count (default roster: the five-policy lab lineup)")
		verbose     = fs.Bool("v", false, "print every run, not just the per-scheme aggregates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -sparse defaults on, so only an explicit setting can be a mistake
	// on a scheme without a placement engine to configure.
	sparseSet := false
	fs.Visit(func(f *flag.Flag) { sparseSet = sparseSet || f.Name == "sparse" })
	switch {
	case *reps < 1:
		return fmt.Errorf("-reps must be positive (got %d)", *reps)
	case *nodes <= 0:
		return fmt.Errorf("-nodes must be positive (got %d)", *nodes)
	case *jobCount < 0:
		return fmt.Errorf("-jobs must be >= 0 (got %d)", *jobCount)
	case *workers <= 0:
		return fmt.Errorf("-workers must be positive (got %d)", *workers)
	case *sparseK < 0:
		return fmt.Errorf("-sparse must be >= 0 (got %d)", *sparseK)
	case *cells < 1:
		return fmt.Errorf("-cells must be positive (got %d)", *cells)
	case *cells > *nodes:
		return fmt.Errorf("-cells (%d) cannot exceed -nodes (%d): every cell needs at least one PM", *cells, *nodes)
	case *kernelW < 0:
		return fmt.Errorf("-kernel-workers must be >= 0 (got %d)", *kernelW)
	}
	schemes, err := parseSchemes(*schemesFlag)
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedsFlag, *reps)
	if err != nil {
		return err
	}
	// Validate the effective scheme list eagerly: a bad name or a
	// dynamic-only flag paired with an all-static roster should fail
	// here with the offending scheme named, not minutes into the sweep.
	effective := schemes
	if len(effective) == 0 {
		if *tournament {
			effective = exp.DefaultTournamentPolicies()
		} else {
			effective = []string{"first-fit", "best-fit", "dynamic"}
		}
	}
	anyDyn := false
	for _, s := range effective {
		p, err := policy.ByName(s, 1)
		if err != nil {
			return err
		}
		if _, ok := policy.DynamicOf(p); ok {
			anyDyn = true
		}
	}
	if !anyDyn {
		switch {
		case sparseSet:
			return fmt.Errorf("-sparse applies to the dynamic scheme family only (schemes: %s)", strings.Join(effective, ","))
		case *kernelW != 0:
			return fmt.Errorf("-kernel-workers applies to the dynamic scheme family only (schemes: %s)", strings.Join(effective, ","))
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
			}
		}()
	}

	opts := exp.SweepOptions{
		Base: exp.Options{
			SpareForDynamic: *useSpare,
			CandidateK:      *sparseK,
			Cells:           *cells,
			KernelWorkers:   *kernelW,
			TraceGen:        traceGen(*jobCount),
		},
		Schemes: schemes,
		Seeds:   seeds,
		Workers: *workers,
	}
	if *nodes != 100 {
		n := *nodes
		opts.Base.Fleet = func() *cluster.Datacenter { return cluster.TableIIFleetScaled(n) }
	}

	if *tournament {
		return runTournament(opts, schemes, *workers, *outPath, out)
	}

	effWorkers := *workers
	start := time.Now()
	report, err := exp.RunSweep(opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "sweep: %d runs (%d schemes x %d seeds) on %d workers in %.2fs (%.2f runs/sec)\n\n",
		len(report.Runs), len(report.Schemes), len(report.Seeds), effWorkers,
		elapsed.Seconds(), float64(len(report.Runs))/elapsed.Seconds())
	if *verbose {
		fmt.Fprintf(out, "%-12s %6s %12s %9s %11s %7s %8s\n",
			"scheme", "seed", "week kWh", "meanPMs", "migrations", "boots", "queued%")
		for _, r := range report.Runs {
			fmt.Fprintf(out, "%-12s %6d %12.1f %9.1f %11d %7d %7.2f%%\n",
				r.Scheme, r.Seed, r.WeekEnergyKWh, r.MeanActivePMs,
				r.Migrations, r.Boots, r.QueuedFraction*100)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-12s %5s %21s %19s %9s %12s %8s\n",
		"scheme", "runs", "week kWh (mean±sd)", "[min, max]", "meanPMs", "migrations", "queued%")
	for _, a := range report.Aggregates {
		fmt.Fprintf(out, "%-12s %5d %13.1f ± %5.1f [%7.1f, %7.1f] %9.1f %12.1f %7.2f%%\n",
			a.Scheme, a.Runs,
			a.WeekEnergyKWh.Mean, a.WeekEnergyKWh.StdDev,
			a.WeekEnergyKWh.Min, a.WeekEnergyKWh.Max,
			a.MeanActivePMs.Mean, a.Migrations.Mean, a.QueuedFraction.Mean*100)
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *outPath == "-" {
			_, err := out.Write(data)
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *outPath)
	}
	return nil
}

// runTournament scores the roster on multi-objective fitness and prints
// the standings (see exp.RunTournament; the report is byte-identical at
// every worker count, so -o output is machine-comparable).
func runTournament(opts exp.SweepOptions, schemes []string, workers int, outPath string, out io.Writer) error {
	start := time.Now()
	report, err := exp.RunTournament(exp.TournamentOptions{
		Base:     opts.Base,
		Policies: schemes, // nil -> the default five-policy roster
		Seeds:    opts.Seeds,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	sweep := report.Sweep
	fmt.Fprintf(out, "tournament: %d runs (%d policies x %d seeds) on %d workers in %.2fs\n\n",
		len(sweep.Runs), len(sweep.Schemes), len(sweep.Seeds), workers, elapsed.Seconds())
	fmt.Fprintf(out, "%4s %-18s %6s %14s %5s %12s %5s %12s %5s\n",
		"rank", "policy", "score", "energy kWh", "r", "violations", "r", "migrations", "r")
	for _, s := range report.Scores {
		fmt.Fprintf(out, "%4d %-18s %6d %14.1f %5d %11.2f%% %5d %12.1f %5d\n",
			s.Rank, s.Scheme, s.TotalScore,
			s.EnergyMean, s.EnergyRank,
			s.ViolationMean*100, s.ViolationRank,
			s.MigrationsMean, s.MigrationRank)
	}

	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if outPath == "-" {
			_, err := out.Write(data)
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", outPath)
	}
	return nil
}

// traceGen builds the per-seed workload generator: the synthetic week,
// optionally truncated to its first n jobs (matching dvmpsim's -jobs).
func traceGen(n int) func(seed int64) []workload.Request {
	return func(seed int64) []workload.Request {
		jobs, reqs := exp.WeekTrace(seed)
		if n <= 0 || n >= len(jobs) {
			return reqs
		}
		return workload.ToRequests(jobs[:n])
	}
}

// parseSchemes splits the -schemes list, rejecting empty entries: a stray
// comma would otherwise reach policy.ByName as a nameless scheme and fail
// deep inside the sweep with a confusing error — or worse, silently drop a
// scheme the user thought they were comparing.
func parseSchemes(list string) ([]string, error) {
	if list == "" {
		return nil, nil // exp.RunSweep substitutes the paper's trio
	}
	var schemes []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, fmt.Errorf("empty scheme entry in -schemes %q", list)
		}
		schemes = append(schemes, s)
	}
	return schemes, nil
}

// parseSeeds resolves the replication seeds: the explicit -seeds list when
// given, else 1..reps.
func parseSeeds(list string, reps int) ([]int64, error) {
	if list == "" {
		seeds := make([]int64, reps)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed entry %q", f)
		}
		seeds = append(seeds, n)
	}
	return seeds, nil
}
