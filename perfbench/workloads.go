package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/workload"
)

// spec is one benchmark workload: a fleet, a request stream generated
// from the seed, a scheme, and whether the run records its trace,
// decision log, metrics registry and periodic checkpoints. Why each was
// chosen is in BENCHMARK.json and README.md.
type spec struct {
	name string

	// pms is the fleet size; 100 is the Table II fleet itself.
	pms int

	// days keeps the first days of DefaultWeekConfig (0 keeps all
	// seven), and jobScale multiplies every day's job count.
	days     int
	jobScale int

	scheme   string
	recorded bool
}

// ckptEvery is the recorded workload's checkpoint interval in
// dispatched events.
const ckptEvery = 10000

var specs = []spec{
	{name: "week-dynamic", pms: 100, jobScale: 1, scheme: "dynamic"},
	{name: "fleet1k-dynamic", pms: 1000, days: 1, jobScale: 5, scheme: "dynamic"},
	{name: "fleet1k-static-recorded", pms: 1000, jobScale: 5, scheme: "best-fit", recorded: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// requests generates the workload's request stream from seed: the same
// pipeline dvmpsim runs on its synthetic week.
func (w spec) requests(seed int64) ([]workload.Request, error) {
	cfg := workload.DefaultWeekConfig(seed)
	if w.days > 0 {
		cfg.DailyJobs = cfg.DailyJobs[:w.days]
	}
	daily := make([]int, len(cfg.DailyJobs))
	for i, n := range cfg.DailyJobs {
		daily[i] = n * w.jobScale
	}
	cfg.DailyJobs = daily
	jobs, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	return workload.ToRequests(jobs), nil
}

func (w spec) fleet() *cluster.Datacenter {
	if w.pms == 100 {
		return cluster.TableIIFleet()
	}
	return cluster.TableIIFleetScaled(w.pms)
}

// placer returns a fresh instance of the workload's scheme, wrapped in
// the decision recorder when record is set, as dvmpsim -decisions does.
func (w spec) placer(seed int64, record bool) (policy.Policy, error) {
	p, err := policy.ByName(w.scheme, seed)
	if err != nil {
		return nil, err
	}
	pol, ok := p.(policy.Policy)
	if !ok {
		return nil, fmt.Errorf("scheme %s is not a policy.Policy", w.scheme)
	}
	if record {
		return policy.NewRecorder(pol, 0), nil
	}
	return pol, nil
}

func spareConfig() *spare.Config {
	sc := spare.DefaultConfig()
	return &sc
}
