// Command dvmpsim runs one placement scheme over a workload trace on the
// paper's Table II data center and reports the energy, active-server, and
// QoS outcome.
//
// Usage:
//
//	dvmpsim [-scheme dynamic] [-swf lpc.swf] [-seed 1] [-spare]
//	        [-nodes 100] [-sparse K] [-cells C] [-kernel-workers W]
//	        [-csv out.csv] [-v]
//	        [-trace run.jsonl] [-metrics run.metrics.json]
//	        [-decisions dec.jsonl]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -sparse K sets the candidate budget of the dynamic scheme's placement
// and consolidation engine (see README "Sparse placement"). The
// candidate-set engine at K = 64 is the default; -sparse 0 selects the
// dense kernel. Decisions — and therefore traces — are bit-identical
// either way, which TestGoldenTrace and TestGoldenTraceSparse pin.
//
// -kernel-workers W bounds the goroutines the dynamic scheme's in-run
// kernels fan out on (matrix builds, candidate sync, consolidation
// argmax; see README "Parallel kernels" and DESIGN.md §15). 0 auto-sizes
// to GOMAXPROCS under the process-wide goroutine budget, 1 forces the
// serial path; results are bit-identical at every setting.
//
// -cells C partitions the fleet into C cells advanced by the
// shared-clock orchestrator (see README "Multi-cell runs" and DESIGN.md
// §14); decisions and canonical traces are bit-identical to -cells 1,
// which TestGoldenTraceCells and `make cells-audit` pin. Checkpoints
// taken under one cell count resume under any other.
//
// The -cpuprofile and -memprofile flags capture runtime/pprof profiles of
// the whole run for `go tool pprof`; the placement hot path (matrix build
// and per-round refresh) is where the samples land under -scheme dynamic.
//
// -trace writes the structured JSONL run trace (one schema-versioned
// event per line: arrivals, placements, migrations, boots, failures,
// spare plans — see internal/obs and DESIGN.md §9); summarize or diff it
// with cmd/tracestat. -metrics dumps the run's metrics registry (event
// counters, queue-wait histogram, per-phase wall-clock timings) as JSON.
// Two runs with the same flags produce byte-identical traces once the
// wall-clock field is stripped (`tracestat -diff` does this).
//
// -decisions records every policy decision — arrival placements with
// their top-k rejected alternatives, consolidation move batches, and
// spare-pool targets — as a separate JSONL stream (see DESIGN.md §16).
// The decision stream has its own logical clock, so recording leaves the
// run trace byte-identical to an unrecorded run (`make policy-audit`
// pins this). Replay the log, or ask "what if we'd picked alternative
// #2", with cmd/counterfact.
//
// Without -swf a synthetic week calibrated to the paper's Figure 2 is
// generated from -seed. With -swf, the file is parsed as Standard
// Workload Format (so the original LPC log from the Parallel Workloads
// Archive can be used directly), filtered, and normalized per Section V.A.
//
// Checkpoint and resume: -checkpoint names a checkpoint file,
// -checkpoint-every N rewrites it (atomically) every N dispatched events,
// -stop-after N checkpoints and exits at event N (a controlled crash),
// and -resume restores a run from a checkpoint under the same flags. A
// resumed run continues bit-exactly: its trace concatenated after the
// interrupted run's is canonically byte-identical to an uninterrupted
// run's (see DESIGN.md §11 and `make resume-audit`).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvmpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dvmpsim", flag.ContinueOnError)
	var (
		scheme    = fs.String("scheme", "dynamic", "placement scheme: first-fit, best-fit, worst-fit, random, threshold, dynamic, overbook, dynamic-adaptive")
		swfPath   = fs.String("swf", "", "SWF workload file (default: synthetic week from -seed)")
		tracePath = fs.String("trace", "", "write the structured JSONL run trace to this file")
		decPath   = fs.String("decisions", "", "record every placement decision (with top-k alternatives) as JSONL to this file; replay with cmd/counterfact")
		metrPath  = fs.String("metrics", "", "write the run's metrics registry as JSON to this file")
		seed      = fs.Int64("seed", 1, "workload / random-scheme seed")
		sparseK   = fs.Int("sparse", core.DefaultCandidateK, "candidate budget K for the dynamic scheme's sparse placement engine (default on; 0 = the dense kernel, bit-identical decisions)")
		cells     = fs.Int("cells", 1, "partition the fleet into N cells under the shared-clock orchestrator (1 = monolithic engine; results are bit-identical for any N)")
		kernelW   = fs.Int("kernel-workers", 0, "goroutines the dynamic scheme's placement kernels fan out on (0 = auto-size to GOMAXPROCS under the shared budget, 1 = serial; results are bit-identical for any value)")
		useSpare  = fs.Bool("spare", false, "enable the spare-server controller (Section IV)")
		nodes     = fs.Int("nodes", 100, "fleet size (Table II fast:slow mix is preserved)")
		jobCount  = fs.Int("jobs", 0, "truncate the workload to the first N jobs (0 = all)")
		timed     = fs.Bool("timed", false, "use the timed pre-copy migration model")
		warm      = fs.Int("warm", 0, "power on N machines before the first arrival")
		logPath   = fs.String("eventlog", "", "write a per-event trace to this file")
		auditMode = fs.String("audit", "off", "invariant auditing: off, period (each control period), event (after every event)")
		csvPath   = fs.String("csv", "", "write hourly active/energy series as CSV")
		verbose   = fs.Bool("v", false, "print the hourly series to stdout")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write an end-of-run heap profile to this file")
		ckptPath  = fs.String("checkpoint", "", "checkpoint file to write (atomically, via rename)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "checkpoint every N dispatched events (requires -checkpoint)")
		stopAfter = fs.Int64("stop-after", 0, "stop after N dispatched events, write a final checkpoint, and exit (requires -checkpoint)")
		resumeArg = fs.String("resume", "", "resume the run from this checkpoint file instead of starting fresh")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -sparse defaults on, so only an explicit setting can be a mistake
	// on a scheme without a placement engine to configure.
	sparseSet := false
	fs.Visit(func(f *flag.Flag) { sparseSet = sparseSet || f.Name == "sparse" })

	// Uniform flag validation: every bad value dies here with one line,
	// before any file is created or any work starts.
	switch {
	case *nodes <= 0:
		return fmt.Errorf("-nodes must be positive (got %d)", *nodes)
	case *jobCount < 0:
		return fmt.Errorf("-jobs must be >= 0 (got %d)", *jobCount)
	case *warm < 0:
		return fmt.Errorf("-warm must be >= 0 (got %d)", *warm)
	case *ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", *ckptEvery)
	case *stopAfter < 0:
		return fmt.Errorf("-stop-after must be >= 0 (got %d)", *stopAfter)
	case (*ckptEvery > 0 || *stopAfter > 0) && *ckptPath == "":
		return fmt.Errorf("-checkpoint-every and -stop-after need -checkpoint to say where the checkpoint goes")
	case *sparseK < 0:
		return fmt.Errorf("-sparse must be >= 0 (got %d)", *sparseK)
	case *cells < 1:
		return fmt.Errorf("-cells must be >= 1 (got %d)", *cells)
	case *cells > *nodes:
		return fmt.Errorf("-cells must not exceed -nodes: every cell owns at least one PM (got %d cells for %d nodes)", *cells, *nodes)
	case *kernelW < 0:
		return fmt.Errorf("-kernel-workers must be >= 0 (got %d)", *kernelW)
	}

	placer, err := policy.ByName(*scheme, *seed)
	if err != nil {
		return err
	}
	// Cross-flag checks that depend on the scheme family: the sparse
	// engine and the kernel-worker knob configure the dynamic scheme's
	// placement kernels, so with any other scheme they would silently do
	// nothing — reject them instead. DynamicOf unwraps wrapper policies,
	// so dynamic-adaptive qualifies.
	if _, isDyn := policy.DynamicOf(placer); !isDyn {
		switch {
		case sparseSet:
			return fmt.Errorf("-sparse applies to the dynamic scheme family only (got -scheme %s)", *scheme)
		case *kernelW != 0:
			return fmt.Errorf("-kernel-workers applies to the dynamic scheme family only (got -scheme %s)", *scheme)
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
				fmt.Fprintln(os.Stderr, "dvmpsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvmpsim: memprofile:", err)
			}
		}()
	}

	if d, ok := policy.DynamicOf(placer); ok {
		d.Opts.CandidateK = *sparseK
	}

	var jobs []workload.Job
	if *swfPath != "" {
		f, err := os.Open(*swfPath)
		if err != nil {
			return err
		}
		jobs, err = workload.ParseSWF(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		jobs = workload.MustGenerate(workload.DefaultWeekConfig(*seed))
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	if *jobCount > 0 && *jobCount < len(jobs) {
		jobs = jobs[:*jobCount]
	}
	reqs := workload.ToRequests(jobs)
	fmt.Fprintf(out, "workload: %d jobs -> %d single-core VM requests\n", len(jobs), len(reqs))

	var dc *cluster.Datacenter
	if *nodes == 100 {
		dc = cluster.TableIIFleet()
	} else {
		dc = cluster.TableIIFleetScaled(*nodes)
	}
	cfg := sim.Config{DC: dc, Placer: placer, Requests: reqs, TimedMigrations: *timed, WarmStart: *warm, Cells: *cells, KernelWorkers: *kernelW}
	cfg.Audit, err = audit.ParseMode(*auditMode)
	if err != nil {
		return err
	}
	if *useSpare {
		sc := spare.DefaultConfig()
		cfg.Spare = &sc
	}
	if *logPath != "" {
		lf, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer lf.Close()
		cfg.EventLog = bufio.NewWriter(lf)
		defer cfg.EventLog.(*bufio.Writer).Flush()
	}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *tracePath != "" || *metrPath != "" || *decPath != "" {
		cfg.Obs = obs.New()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			traceFile = f
			traceBuf = bufio.NewWriterSize(f, 1<<16)
			cfg.Obs.Trace = obs.NewTracer(traceBuf)
		}
	}
	var decFile *os.File
	var decBuf *bufio.Writer
	if *decPath != "" {
		f, err := os.Create(*decPath)
		if err != nil {
			return err
		}
		decFile = f
		decBuf = bufio.NewWriterSize(f, 1<<16)
		cfg.Obs.Decisions = obs.NewTracer(decBuf)
		// Recording wraps the configured policy; the decision stream has
		// its own logical clock, so the run trace stays byte-identical to
		// an unrecorded run (`make policy-audit` pins this).
		cfg.Placer = policy.NewRecorder(placer.(policy.Policy), 0)
	}
	res, stopped, err := runSim(cfg, out, *resumeArg, *ckptPath, uint64(*ckptEvery), uint64(*stopAfter))
	if traceFile != nil {
		// Flush and close even on a failed or stopped run: a trace that
		// ends at an audit violation or a checkpoint is exactly what you
		// want to inspect (and resume from).
		if ferr := traceBuf.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if terr := cfg.Obs.Trace.Err(); terr != nil && err == nil {
			err = terr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if decFile != nil {
		// Same flush-even-on-failure contract as the run trace: a
		// decision log that ends at a checkpoint is what counterfact
		// resumes from.
		if ferr := decBuf.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if derr := cfg.Obs.Decisions.Err(); derr != nil && err == nil {
			err = derr
		}
		if cerr := decFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if stopped {
		// -stop-after hit: the state lives in the checkpoint, there is no
		// Result to report.
		return nil
	}
	if *tracePath != "" {
		fmt.Fprintf(out, "trace: %d events written to %s\n", cfg.Obs.Trace.Events(), *tracePath)
	}
	if *decPath != "" {
		fmt.Fprintf(out, "decisions: %d records written to %s\n", cfg.Obs.Decisions.Events(), *decPath)
	}
	if *metrPath != "" {
		f, err := os.Create(*metrPath)
		if err != nil {
			return err
		}
		if err := cfg.Obs.Reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %s\n", *metrPath)
	}

	if err := metrics.WriteSummaries(out, []metrics.Summary{res.Summary}); err != nil {
		return err
	}
	fmt.Fprintf(out, "energy by class: %v kWh\n", res.EnergyByClassKWh)
	if cfg.Audit != audit.Off {
		fmt.Fprintf(out, "audit: %d checks passed (mode %s)\n", res.AuditChecks, cfg.Audit)
	}
	if res.Failures > 0 {
		fmt.Fprintf(out, "PM failures injected: %d\n", res.Failures)
	}

	table := &metrics.Table{TimeLabel: "hour", Series: []*metrics.Series{res.ActivePMs, res.EnergyKWh}}
	if *verbose {
		if err := table.WriteText(out); err != nil {
			return err
		}
		if cfg.Obs != nil {
			fmt.Fprintln(out, "-- run metrics --")
			if err := cfg.Obs.Reg.WriteText(out); err != nil {
				return err
			}
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := table.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "hourly series written to %s\n", *csvPath)
	}
	return nil
}

// runSim drives the simulation loop with the checkpoint hooks: resume
// from a checkpoint file instead of a fresh start, periodic checkpoints
// every N events, and a -stop-after cutoff that checkpoints and exits
// mid-run (the "controlled crash" the resume audit restores from).
// stopped reports the cutoff path, in which case res is nil.
func runSim(cfg sim.Config, out io.Writer, resumePath, ckptPath string, every, stopAfter uint64) (res *sim.Result, stopped bool, err error) {
	var m *sim.Sim
	if resumePath != "" {
		f, oerr := os.Open(resumePath)
		if oerr != nil {
			return nil, false, oerr
		}
		m, err = sim.Restore(cfg, f)
		f.Close()
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(out, "resumed: %s at event %d (t=%.1f)\n", resumePath, m.Dispatched(), m.Now())
	} else {
		if m, err = sim.New(cfg); err != nil {
			return nil, false, err
		}
	}
	lastCkpt := m.Dispatched()
	for {
		if stopAfter > 0 && m.Dispatched() >= stopAfter && m.Pending() > 0 {
			if err := writeCheckpoint(m, ckptPath); err != nil {
				return nil, false, err
			}
			fmt.Fprintf(out, "checkpoint: %s at event %d (t=%.1f), stopping\n", ckptPath, m.Dispatched(), m.Now())
			return nil, true, nil
		}
		if every > 0 && m.Dispatched() >= lastCkpt+every {
			if err := writeCheckpoint(m, ckptPath); err != nil {
				return nil, false, err
			}
			lastCkpt = m.Dispatched()
		}
		ok, serr := m.Step()
		if serr != nil {
			return nil, false, serr
		}
		if !ok {
			break
		}
	}
	res, err = m.Finish()
	return res, false, err
}

// writeCheckpoint saves the run state atomically: write to a temp file in
// the same directory, then rename over the target, so a crash mid-write
// never leaves a truncated checkpoint where a good one stood.
func writeCheckpoint(m *sim.Sim, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := m.Save(w); err == nil {
		err = w.Flush()
	} else {
		w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
