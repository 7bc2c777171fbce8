package spare

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

func testDC() *cluster.Datacenter {
	fast := cluster.FastClass
	return cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 10}},
	})
}

func runVM(t *testing.T, dc *cluster.Datacenter, pm cluster.PMID, id cluster.VMID, start, est float64) *cluster.VM {
	t.Helper()
	vm := cluster.NewVM(id, vector.New(1, 0.5), est, est, start)
	dc.PM(pm).State = cluster.PMOn
	if err := dc.PM(pm).Host(vm); err != nil {
		t.Fatal(err)
	}
	dc.SetVMState(vm, cluster.VMRunning)
	vm.StartTime = start
	return vm
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.Cycle = -1 },
		func(c *Config) { c.MaxSpares = -1 },
		func(c *Config) { c.NAveFallback = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewController(Config{})
}

func TestPredictDepartures(t *testing.T) {
	dc := testDC()
	runVM(t, dc, 0, 1, 0, 1000)  // remaining 1000 at t=500 -> departs
	runVM(t, dc, 0, 2, 0, 10000) // remaining 9500 -> stays
	runVM(t, dc, 1, 3, 400, 500) // remaining 400 -> departs
	if got := PredictDepartures(dc, 500, 3600); got != 2 {
		t.Errorf("departures = %d, want 2", got)
	}
}

func TestPredictDeparturesIgnoresNonRunning(t *testing.T) {
	dc := testDC()
	vm := runVM(t, dc, 0, 1, 0, 100)
	dc.SetVMState(vm, cluster.VMCreating)
	if got := PredictDepartures(dc, 0, 3600); got != 0 {
		t.Errorf("creating VM predicted to depart: %d", got)
	}
	dc.SetVMState(vm, cluster.VMMigrating)
	if got := PredictDepartures(dc, 0, 3600); got != 1 {
		t.Errorf("migrating VM should count: %d", got)
	}
}

func TestPlanNoSparesWhenDeparturesDominate(t *testing.T) {
	c := NewController(DefaultConfig())
	dc := testDC()
	// Many imminent departures, no recorded arrivals.
	for i := cluster.VMID(0); i < 5; i++ {
		runVM(t, dc, cluster.PMID(i%3), i, 0, 60)
	}
	p := c.PlanSpares(100, dc)
	if p.Spares != 0 {
		t.Errorf("spares = %d, want 0 (Eq. 8 negative branch)", p.Spares)
	}
	if p.NDeparture != 5 {
		t.Errorf("NDeparture = %d, want 5", p.NDeparture)
	}
}

func TestPlanSparesScaleWithArrivalRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cycle = 86400
	c := NewController(cfg)
	dc := testDC()
	// Uniform heavy arrivals: 24/hour for 2 days.
	r := stats.NewRand(1)
	for d := 0; d < 2; d++ {
		for i := 0; i < 24*24; i++ {
			c.RecordArrival(float64(d)*86400 + r.Float64()*86400)
		}
	}
	now := 2.0 * 86400
	p := c.PlanSpares(now, dc)
	// ~24 expected arrivals; Poisson 95% quantile ~ 32; N_Ave fallback 1.
	if p.ExpectedArrivals < 18 || p.ExpectedArrivals > 30 {
		t.Errorf("expected arrivals = %g, want ~24", p.ExpectedArrivals)
	}
	if float64(p.NArrival) < p.ExpectedArrivals {
		t.Errorf("quantile %d below mean %g", p.NArrival, p.ExpectedArrivals)
	}
	if p.Spares != dc.Size() {
		t.Errorf("spares = %d, want capped at fleet size %d", p.Spares, dc.Size())
	}
}

func TestPlanDividesByNAve(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg)
	dc := testDC()
	// N_Ave = 4: one PM hosting 4 long-running VMs.
	for i := cluster.VMID(0); i < 4; i++ {
		runVM(t, dc, 0, i, 0, 1e6)
	}
	// Steady 8 arrivals/hour for 1 day -> expect ~8, quantile ~13.
	for i := 0; i < 8*24; i++ {
		c.RecordArrival(float64(i) * 86400 / (8 * 24))
	}
	p := c.PlanSpares(86400, dc)
	if p.NAve != 4 {
		t.Fatalf("NAve = %g, want 4", p.NAve)
	}
	wantSpares := int(math.Ceil(float64(p.NArrival-p.NDeparture) / 4))
	if p.Spares != wantSpares {
		t.Errorf("spares = %d, want %d", p.Spares, wantSpares)
	}
	if p.Spares < 2 || p.Spares > 5 {
		t.Errorf("spares = %d, expected a small positive count", p.Spares)
	}
}

func TestPlanMaxSparesCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSpares = 2
	c := NewController(cfg)
	dc := testDC()
	for i := 0; i < 1000; i++ {
		c.RecordArrival(float64(i) * 86.4)
	}
	p := c.PlanSpares(86400, dc)
	if p.Spares != 2 {
		t.Errorf("spares = %d, want capped 2", p.Spares)
	}
}

func TestPlanQoSTailBound(t *testing.T) {
	// The chosen n_arrival must satisfy P(N > n) <= alpha for the
	// estimated mean.
	cfg := DefaultConfig()
	c := NewController(cfg)
	dc := testDC()
	for i := 0; i < 480; i++ { // 20/hour over a day
		c.RecordArrival(float64(i) * 180)
	}
	p := c.PlanSpares(86400, dc)
	tail := 1 - stats.PoissonCDF(p.ExpectedArrivals, p.NArrival)
	if tail > cfg.Alpha+1e-9 {
		t.Errorf("P(N > %d) = %g exceeds alpha %g", p.NArrival, tail, cfg.Alpha)
	}
}

func TestPlanColdStart(t *testing.T) {
	c := NewController(DefaultConfig())
	dc := testDC()
	p := c.PlanSpares(0, dc)
	if p.Spares != 0 || p.NArrival != 0 {
		t.Errorf("cold-start plan = %+v, want zeros", p)
	}
}

func TestChurnAwareReducesSpares(t *testing.T) {
	// High arrival rate of very short tasks: Eq. 8 predicts large net
	// growth, the churn-aware correction recognizes the arrivals mostly
	// depart within the period too.
	build := func(churn bool) Plan {
		cfg := DefaultConfig()
		cfg.ChurnAware = churn
		c := NewController(cfg)
		for i := 0; i < 24*120; i++ { // 120 arrivals/hour for a day
			c.RecordArrival(float64(i) * 30)
		}
		for i := 0; i < 500; i++ {
			c.RecordCompletion(480) // 8-minute tasks
		}
		dc := testDC()
		// A few long runners so N_ave is realistic.
		for i := cluster.VMID(0); i < 6; i++ {
			runVM(t, dc, cluster.PMID(i%3), i, 0, 1e6)
		}
		return c.PlanSpares(86400, dc)
	}
	paper := build(false)
	churn := build(true)
	if churn.Spares >= paper.Spares {
		t.Errorf("churn-aware spares %d not below paper's %d", churn.Spares, paper.Spares)
	}
	if churn.Spares < 0 {
		t.Error("negative spares")
	}
	// With 8-minute tasks and T = 1 h the correction saturates: nearly
	// every predicted arrival departs within the period.
	if churn.NDeparture < paper.NArrival {
		t.Errorf("churn departure %d below arrival quantile %d", churn.NDeparture, paper.NArrival)
	}
}

func TestChurnAwareNoCompletionsFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnAware = true
	c := NewController(cfg)
	for i := 0; i < 480; i++ {
		c.RecordArrival(float64(i) * 180)
	}
	dc := testDC()
	// Without completion data the correction is inert (MeanRuntime 0).
	p := c.PlanSpares(86400, dc)
	if p.NDeparture != 0 {
		t.Errorf("NDeparture = %d with no data", p.NDeparture)
	}
	if c.MeanRuntime() != 0 {
		t.Error("MeanRuntime without completions should be 0")
	}
	c.RecordCompletion(-5) // ignored
	if c.MeanRuntime() != 0 {
		t.Error("negative runtime recorded")
	}
}

func TestPlanDeparturesExceedArrivals(t *testing.T) {
	// Both sides of Eq. 8 non-zero, departures larger: a modest arrival
	// rate (so n_arrival > 0) against a fleet full of imminently
	// finishing VMs. The negative difference must clamp to zero spares,
	// never underflow into booting machines for demand that is shrinking.
	c := NewController(DefaultConfig())
	for i := 0; i < 24*4; i++ { // 4 arrivals/hour for a day
		c.RecordArrival(float64(i) * 900)
	}
	dc := testDC()
	for i := cluster.VMID(0); i < 30; i++ {
		runVM(t, dc, cluster.PMID(i%5), i, 0, 600) // all depart within T
	}
	p := c.PlanSpares(86400, dc)
	if p.NArrival <= 0 {
		t.Fatalf("NArrival = %d, want positive (test needs both sides live)", p.NArrival)
	}
	if p.NDeparture <= p.NArrival {
		t.Fatalf("NDeparture %d not above NArrival %d; fixture broken", p.NDeparture, p.NArrival)
	}
	if p.Spares != 0 {
		t.Errorf("spares = %d, want 0 when departures dominate", p.Spares)
	}
}
