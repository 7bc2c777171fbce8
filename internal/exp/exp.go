// Package exp assembles the paper's experiments: it wires the workload
// generator, the Table II fleet, the placement schemes, and the simulator
// into the exact runs behind each figure and table of Section V, plus the
// ablation studies listed in DESIGN.md. Both cmd/experiments and the
// repository-root benchmarks drive this package.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spare"
	"repro/internal/workload"
)

// WeekHours is the length of the paper's evaluation window: Figures 3-5
// plot one week. Jobs still running past the window complete (and the
// summary's total energy includes them), but figure series are truncated
// here.
const WeekHours = 168

// Options configures a comparison run.
type Options struct {
	// Seed drives workload generation and the randomized schemes.
	Seed int64

	// Schemes lists the placement schemes to compare; default is the
	// paper's trio (first-fit, best-fit, dynamic).
	Schemes []string

	// SpareForDynamic attaches the Section IV spare-server controller
	// to the dynamic scheme (the paper's full system). Static schemes
	// never get one.
	SpareForDynamic bool

	// Fleet builds the data center per run; default Table II.
	Fleet func() *cluster.Datacenter

	// Failures optionally injects PM failures into every run.
	Failures failure.Config

	// Trace overrides the generated week workload (used by tests and
	// custom studies); nil selects WeekTrace(Seed).
	Trace []workload.Request

	// TraceGen, when set, supplies the per-seed workload for studies
	// that resample across seeds (RobustnessStudy); nil selects
	// WeekTrace.
	TraceGen func(seed int64) []workload.Request

	// CandidateK sets the dynamic scheme's candidate budget
	// (core.MatrixOptions.CandidateK): positive runs the sparse
	// candidate-set engine, bit-identical to the dense kernel that zero
	// selects. DefaultOptions sets core.DefaultCandidateK. Static schemes
	// ignore it.
	CandidateK int

	// KernelWorkers bounds the goroutines the dynamic scheme's placement
	// kernels fan out on inside each run (sim.Config.KernelWorkers /
	// core.MatrixOptions.Workers). Zero auto-sizes against the
	// process-wide goroutine budget — which a parallel sweep drains
	// first, so replication-level parallelism takes precedence over
	// kernel-level; one forces the serial path; results are bit-identical
	// at every setting. Static schemes ignore it.
	KernelWorkers int

	// Cells, when > 1, runs every scheme through the sharded multi-cell
	// engine (sim.Config.Cells): the fleet is partitioned into that many
	// cells advanced by the shared-clock orchestrator, with decisions —
	// and therefore results — bit-identical to the monolith. 0 or 1
	// selects the monolithic engine.
	Cells int

	// Observe, when set, is called once per simulation run (before it
	// starts) with the scheme's name and must return that run's private
	// observability sink, or nil to leave the run uninstrumented. The
	// harness fans runs out in parallel (ParallelComparison, Sweep), so
	// a fresh Observer per call is required for per-run metrics — a
	// shared one would pool counters across concurrently running
	// schemes. The observer is reachable afterwards via SchemeRun.Obs.
	Observe func(scheme string) *obs.Observer
}

// DefaultOptions returns the paper's evaluation setup.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:            seed,
		Schemes:         []string{"first-fit", "best-fit", "dynamic"},
		SpareForDynamic: true,
		CandidateK:      core.DefaultCandidateK,
	}
}

// WeekTrace generates, filters, and splits the week-long workload exactly
// as Section V.A describes: synthesize the LPC-like trace, drop cancelled
// and small-memory jobs, and normalize memory per core into single-core VM
// requests.
func WeekTrace(seed int64) ([]workload.Job, []workload.Request) {
	jobs := workload.MustGenerate(workload.DefaultWeekConfig(seed))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	return jobs, workload.ToRequests(jobs)
}

// SchemeRun couples a simulation result with its figure-window slice.
type SchemeRun struct {
	*sim.Result

	// WeekEnergyKWh is the energy consumed during the first WeekHours
	// (the quantity Figures 4-5 integrate).
	WeekEnergyKWh float64

	// Obs is this run's private observability sink (nil unless
	// Options.Observe supplied one).
	Obs *obs.Observer
}

// RunScheme simulates one scheme over the given requests on a fresh fleet.
func RunScheme(name string, reqs []workload.Request, opts Options) (*SchemeRun, error) {
	placer, err := policy.ByName(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	_, isDyn := policy.DynamicOf(placer)
	return runPlacer(placer, isDyn, reqs, opts)
}

func runPlacer(placer policy.Placer, wantSpare bool, reqs []workload.Request, opts Options) (*SchemeRun, error) {
	fleet := opts.Fleet
	if fleet == nil {
		fleet = cluster.TableIIFleet
	}
	if d, ok := policy.DynamicOf(placer); ok {
		d.Opts.CandidateK = opts.CandidateK
	}
	cfg := sim.Config{
		DC:            fleet(),
		Placer:        placer,
		Requests:      reqs,
		Failures:      opts.Failures,
		Cells:         opts.Cells,
		KernelWorkers: opts.KernelWorkers,
	}
	if wantSpare && opts.SpareForDynamic {
		sc := spare.DefaultConfig()
		cfg.Spare = &sc
	}
	if opts.Observe != nil {
		cfg.Obs = opts.Observe(placer.Name())
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: scheme %s: %w", placer.Name(), err)
	}
	run := &SchemeRun{Result: res, Obs: cfg.Obs}
	for i := 0; i < WeekHours && i < res.EnergyKWh.Len(); i++ {
		run.WeekEnergyKWh += res.EnergyKWh.At(i)
	}
	return run, nil
}

// Comparison runs every scheme in opts over the same trace.
func Comparison(opts Options) ([]*SchemeRun, error) {
	if len(opts.Schemes) == 0 {
		opts.Schemes = DefaultOptions(opts.Seed).Schemes
	}
	reqs := opts.Trace
	if reqs == nil {
		_, reqs = WeekTrace(opts.Seed)
	}
	runs := make([]*SchemeRun, 0, len(opts.Schemes))
	for _, name := range opts.Schemes {
		r, err := RunScheme(name, reqs, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// truncate clips a series to the figure window.
func truncate(s *metrics.Series, n int) *metrics.Series {
	out := metrics.NewSeries(s.Name, s.Step)
	for i := 0; i < n && i < s.Len(); i++ {
		out.Append(s.At(i))
	}
	return out
}

// Fig3Table builds Figure 3: hourly active-server counts per scheme over
// the week.
func Fig3Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "hour"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.ActivePMs, WeekHours))
	}
	return t
}

// Fig4Table builds Figure 4: hourly energy (kWh per hour, numerically the
// mean kW) per scheme over the week.
func Fig4Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "hour"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.EnergyKWh, WeekHours))
	}
	return t
}

// Fig5Table builds Figure 5: daily energy per scheme over the week.
func Fig5Table(runs []*SchemeRun) *metrics.Table {
	t := &metrics.Table{TimeLabel: "day"}
	for _, r := range runs {
		t.Series = append(t.Series, truncate(r.EnergyKWh, WeekHours).Downsample(24))
	}
	return t
}

// Fig2Report renders the workload characteristics of Figure 2.
func Fig2Report(seed int64) string {
	jobs, reqs := WeekTrace(seed)
	s := workload.Summarize(jobs)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — workload characteristics (seed %d)\n", seed)
	fmt.Fprintf(&b, "jobs after filtering: %d (paper: 4574)\n", len(jobs))
	fmt.Fprintf(&b, "single-core VM requests: %d\n", len(reqs))
	fmt.Fprintf(&b, "\n(a) VM requests per day (paper peak: 982 jobs/day):\n")
	for d, n := range s.JobsPerDay {
		fmt.Fprintf(&b, "  day %d: %d requests\n", d, n)
	}
	fmt.Fprintf(&b, "peak day: %d with %d requests\n", s.PeakDay, s.PeakDayRequests)
	fmt.Fprintf(&b, "\n(b) per-request memory (GB); %.1f%% below 1 GB (paper: most jobs < 1 GB):\n%s",
		s.UnderOneGB*100, s.MemHistogram.String())
	fmt.Fprintf(&b, "\n(c) runtime (hours); %d jobs < 1 day (paper: 2077 — see EXPERIMENTS.md\n"+
		"    for the load-feasibility recalibration note):\n%s",
		s.UnderOneDay, s.RuntimeHistogram.String())
	return b.String()
}

// Table2Report renders the Table II parameters actually encoded in the
// fleet, for verification against the paper.
func Table2Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — data center parameter settings\n")
	fmt.Fprintf(&b, "%-30s %8s %8s\n", "", "Fast", "Slow")
	rows := []struct {
		label      string
		fast, slow float64
	}{
		{"Number", 25, 75},
		{"VM creation time (s)", cluster.FastClass.CreationTime, cluster.SlowClass.CreationTime},
		{"VM migration time (s)", cluster.FastClass.MigrationTime, cluster.SlowClass.MigrationTime},
		{"ON/OFF overhead (s)", cluster.FastClass.OnOffOverhead, cluster.SlowClass.OnOffOverhead},
		{"Total cores", cluster.FastClass.Capacity[cluster.ResCPU], cluster.SlowClass.Capacity[cluster.ResCPU]},
		{"Memory (GB)", cluster.FastClass.Capacity[cluster.ResMem], cluster.SlowClass.Capacity[cluster.ResMem]},
		{"Active power (W)", cluster.FastClass.ActivePower, cluster.SlowClass.ActivePower},
		{"Idle power (W)", cluster.FastClass.IdlePower, cluster.SlowClass.IdlePower},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %8g %8g\n", r.label, r.fast, r.slow)
	}
	dc := cluster.TableIIFleet()
	counts := map[string]int{}
	for _, p := range dc.PMs() {
		counts[p.Class.Name]++
	}
	fmt.Fprintf(&b, "fleet check: %d fast + %d slow = %d nodes\n", counts["fast"], counts["slow"], dc.Size())
	return b.String()
}

// SummaryRows converts scheme runs into summary rows (figure-window energy
// replaces whole-run energy so the comparison matches the paper's plots).
func SummaryRows(runs []*SchemeRun) []metrics.Summary {
	rows := make([]metrics.Summary, 0, len(runs))
	for _, r := range runs {
		s := r.Summary
		s.TotalEnergyKWh = r.WeekEnergyKWh
		rows = append(rows, s)
	}
	return rows
}

// SavingsReport states the headline result: dynamic's energy saving over
// each baseline within the figure window.
func SavingsReport(runs []*SchemeRun) string {
	var dyn *SchemeRun
	for _, r := range runs {
		if strings.HasPrefix(r.Scheme, "dynamic") {
			dyn = r
			break
		}
	}
	if dyn == nil {
		return "no dynamic run in comparison\n"
	}
	ordered := append([]*SchemeRun(nil), runs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].WeekEnergyKWh < ordered[j].WeekEnergyKWh })
	var b strings.Builder
	for _, r := range ordered {
		if r == dyn {
			continue
		}
		save := (r.WeekEnergyKWh - dyn.WeekEnergyKWh) / r.WeekEnergyKWh * 100
		fmt.Fprintf(&b, "dynamic vs %-10s week energy %7.1f vs %7.1f kWh -> %+.1f%% saving\n",
			r.Scheme, dyn.WeekEnergyKWh, r.WeekEnergyKWh, save)
	}
	return b.String()
}
