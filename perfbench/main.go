// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload at a given seed in-process against the simulator
// packages and prints its metrics, one per line with its unit, then a
// JSON result as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload week-dynamic --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the workload is run back to back until --seconds is
// used up, tracing off, and the end-to-end metrics are reported as
// medians over those runs. With --trace 1 the same inputs are run once
// plain and once traced: spans around every call into the simulator,
// policy, sinks and snapshot layers, plus the phase spans the observer
// already records, give the per-layer metrics. Either way the outputs
// are checked, and a failed check exits 1 naming the check and the
// workload. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: week-dynamic, fleet1k-dynamic, fleet1k-static-recorded")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "with --trace 0, keep repeating the run until this many seconds are used (at least one run)")
	trace := fs.Int("trace", 0, "0: timed runs, end-to-end metrics; 1: one plain and one traced run, per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, also write the traced run's spans as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := specByName(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1 (got %d)", *trace)
	}
	if err == nil && *seconds < 0 {
		err = fmt.Errorf("--seconds must be >= 0 (got %g)", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	host, _ := json.Marshal(map[string]any{ // ints and a string always encode
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
	fmt.Fprintf(stdout, "host: %s\n", host)

	var ms []metric
	var attempted int
	if *trace == 0 {
		ms, attempted, err = timedMode(w, *seed, time.Duration(*seconds*float64(time.Second)), dir, stdout)
	} else {
		ms, attempted, err = tracedMode(w, *seed, dir, *spans, stdout)
	}
	res := result{Correct: err == nil, Attempted: max(attempted, 1), Metrics: map[string]jsonValue{}}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		res.Failed = res.Attempted
	} else {
		for _, m := range ms {
			fmt.Fprintf(stdout, "%-32s %16.6f %s\n", m.name, m.value, m.unit)
			res.Metrics[m.name] = jsonValue{Value: m.value, Unit: m.unit}
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}

// minSetups is how many times a timed run sets up at least, so setup_s
// is a median even when one simulation fills the whole budget.
const minSetups = 15

// timedMode repeats the workload, tracing off, until budget is used,
// checks every run, and reports the end-to-end metrics. The simulated
// outcome is printed as well; the end-to-end set carries only the
// metrics that are never zero.
func timedMode(w spec, seed int64, budget time.Duration, dir string, log io.Writer) ([]metric, int, error) {
	var sims, setups []float64
	var first outcome
	attempted := 0
	start := time.Now()
	var lastRun time.Duration
	for len(sims) == 0 || time.Since(start)+lastRun <= budget {
		runtime.GC()
		t0 := time.Now()
		out, err := runOnce(w, seed, dir, runOpts{})
		attempted += out.requests
		if err != nil {
			return nil, attempted, fmt.Errorf("run %d of %s: %w", len(sims)+1, w.name, err)
		}
		if err := checkRun(w, out); err != nil {
			return nil, attempted, err
		}
		if len(sims) == 0 {
			first = out
		} else if err := checkSameSummary(w, "summary_repeats", first.res.Summary, out.res.Summary); err != nil {
			return nil, attempted, err
		}
		lastRun = time.Since(t0)
		sims = append(sims, out.simS)
		setups = append(setups, out.setupS)
		fmt.Fprintf(log, "run %d: setup_s=%.6f sim_s=%.6f\n", len(sims), out.setupS, out.simS)
	}
	for len(setups) < minSetups {
		runtime.GC()
		out, err := runOnce(w, seed, dir, runOpts{setupOnly: true})
		if err != nil {
			return nil, attempted, fmt.Errorf("setup of %s: %w", w.name, err)
		}
		setups = append(setups, out.setupS)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, attempted, err
	}
	if _, err := finalChecks(w, seed, first, nil); err != nil {
		return nil, attempted, err
	}
	for _, m := range outcomeMetrics(first) {
		fmt.Fprintf(log, "outcome %-24s %16.6f %s\n", m.name, m.value, m.unit)
	}
	return []metric{
		{"sim_s", median(sims), "s"},
		{"setup_s", median(setups), "s"},
		{"peak_rss_mb", peak, "MiB"},
	}, attempted, nil
}

// outcomeMetrics is the simulated outcome of a checked run: identical on
// every run of a seed, so a pure speed-up leaves it bit-identical.
func outcomeMetrics(out outcome) []metric {
	s := out.res.Summary
	return []metric{
		{"failed_frac", float64(out.requests-s.VMsCompleted) / float64(out.requests), "ratio"},
		{"energy_kwh", s.TotalEnergyKWh, "kWh"},
		{"queued_frac", s.QueuedFraction, "ratio"},
		{"migrations", float64(s.Migrations), "count"},
	}
}

// tracedMode runs the workload once plain (tracing off, MemStats deltas
// taken around it), on the recorded workload once more without its
// instrumentation, and once traced; it checks all of them against each
// other and reports the per-layer metrics.
func tracedMode(w spec, seed int64, dir, spansPath string, log io.Writer) ([]metric, int, error) {
	attempted := 0
	runChecked := func(o runOpts) (outcome, error) {
		out, err := runOnce(w, seed, dir, o)
		attempted += out.requests
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		return out, checkRun(w, out)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ref, err := runChecked(runOpts{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, attempted, err
	}
	overhead := 0.0
	if w.recorded {
		runtime.GC()
		plain, err := runChecked(runOpts{plain: true})
		if err != nil {
			return nil, attempted, err
		}
		if err := checkSameSummary(w, "plain_summary", ref.res.Summary, plain.res.Summary); err != nil {
			return nil, attempted, err
		}
		overhead = ref.simS - plain.simS
	}
	runtime.GC()
	tr := newTracer(fmt.Sprintf("%s/seed%d", w.name, seed))
	traced, err := runChecked(runOpts{tr: tr})
	if err != nil {
		return nil, attempted, err
	}
	if err := checkSameSummary(w, "traced_summary", ref.res.Summary, traced.res.Summary); err != nil {
		return nil, attempted, err
	}
	restoreS, err := finalChecks(w, seed, traced, tr)
	if err != nil {
		return nil, attempted, err
	}
	if spansPath != "" {
		if err := tr.writeJSONL(spansPath); err != nil {
			return nil, attempted, err
		}
	}
	fmt.Fprintf(log, "timed sim_s=%.6f traced sim_s=%.6f\n", ref.simS, traced.simS)

	ms := layerMetrics(tr, traced)
	ms = append(ms,
		metric{"obs.overhead_s", overhead, "s"},
		metric{"snapshot.restore_s", restoreS, "s"},
		metric{"workload.gen_s", ref.genS, "s"},
		metric{"workload.requests", float64(ref.requests), "count"},
		metric{"runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), "MiB"},
		metric{"runtime.mallocs", float64(m1.Mallocs - m0.Mallocs), "count"},
		metric{"runtime.gc_cycles", float64(m1.NumGC - m0.NumGC), "count"},
		metric{"runtime.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9, "s"},
		metric{"bench.trace_overhead_s", traced.simS - ref.simS, "s"},
	)
	return append(ms, outcomeMetrics(ref)...), attempted, nil
}

// layerMetrics turns the traced run's spans and the observer's phase
// spans into per-layer counts and self times. The phase spans are
// inclusive totals nested inside known calls — arrival placement inside
// Place, the matrix build and Algorithm 1 rounds inside Consolidate, the
// spare plan inside Step — so each is subtracted from its caller's self
// time. The self times, the phase totals and bench.unattributed_s (the
// benchmark loop's own share of the run) add up to bench.traced_sim_s.
func layerMetrics(tr *tracer, out outcome) []metric {
	incl, self, durs := tr.layerTimes()
	ph := out.obs.Phase
	kb, ar, ap, sp := ph("kernel_build"), ph("algo1_rounds"), ph("arrival_place"), ph("spare_plan")
	s := func(d time.Duration) float64 { return d.Seconds() }
	ns := func(n int64) time.Duration { return time.Duration(n) }
	n := func(v int) float64 { return float64(v) }
	cons := len(durs[lConsolidate])
	useful := 0.0
	if cons > 0 {
		useful = float64(out.pol.usefulPasses) / float64(cons)
	}
	return []metric{
		{"sim.events", float64(out.dispatched), "count"},
		{"sim.step_self_s", s(self[lStep] - ns(sp.TotalNS())), "s"},
		{"sim.step_p50_us", percentileUS(durs[lStep], 0.5), "us"},
		{"sim.step_p999_us", percentileUS(durs[lStep], 0.999), "us"},
		{"sim.finish_s", s(self[lFinish]), "s"},
		{"policy.place.calls", n(len(durs[lPlace])), "count"},
		{"policy.place_s", s(self[lPlace] - ns(ap.TotalNS())), "s"},
		{"policy.place_p99_us", percentileUS(durs[lPlace], 0.99), "us"},
		{"policy.consolidate.calls", n(cons), "count"},
		{"policy.consolidate_s", s(self[lConsolidate] - ns(kb.TotalNS()+ar.TotalNS())), "s"},
		{"policy.consolidate.moves", n(out.pol.moves), "count"},
		{"policy.consolidate.useful_frac", useful, "ratio"},
		{"policy.spare_target.calls", n(len(durs[lSpareTarget])), "count"},
		{"policy.spare_target_s", s(self[lSpareTarget]), "s"},
		{"core.kernel_build.calls", float64(kb.Calls()), "count"},
		{"core.kernel_build_s", s(ns(kb.TotalNS())), "s"},
		{"core.algo1_rounds.calls", float64(ar.Calls()), "count"},
		{"core.algo1_rounds_s", s(ns(ar.TotalNS())), "s"},
		{"core.arrival_place.calls", float64(ap.Calls()), "count"},
		{"core.arrival_place_s", s(ns(ap.TotalNS())), "s"},
		{"spare.plan.calls", float64(sp.Calls()), "count"},
		{"spare.plan_s", s(ns(sp.TotalNS())), "s"},
		{"obs.trace.events", float64(out.traceEvents), "count"},
		{"obs.trace.bytes", float64(out.traceBytes), "bytes"},
		{"obs.decisions.records", float64(out.decisions), "count"},
		{"obs.decisions.bytes", float64(out.decBytes), "bytes"},
		{"obs.write_s", s(self[lWrite]), "s"},
		{"snapshot.saves", n(out.saves), "count"},
		{"snapshot.save_s", s(self[lSave]), "s"},
		{"snapshot.bytes", float64(out.ckptBytes), "bytes"},
		{"bench.traced_sim_s", s(incl[lRun]), "s"},
		{"bench.unattributed_s", s(self[lRun]), "s"},
	}
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
