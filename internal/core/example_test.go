package core_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vector"
)

// Example reproduces the paper's Figure 1 in miniature: jobs spread across
// two machines are consolidated onto one, freeing the other to power off.
func Example() {
	fast := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 2}},
	})
	for _, pm := range dc.PMs() {
		pm.State = cluster.PMOn
	}

	// VM1 runs on PM0; VM2 and VM3 run on PM1. Everything fits on PM1.
	place := func(id cluster.VMID, pm cluster.PMID, cores, mem float64) {
		vm := cluster.NewVM(id, vector.New(cores, mem), 86400, 86400, 0)
		if err := dc.PM(pm).Host(vm); err != nil {
			panic(err)
		}
		dc.SetVMState(vm, cluster.VMRunning)
	}
	place(1, 0, 2, 2)
	place(2, 1, 2, 2)
	place(3, 1, 2, 2)

	ctx := &core.Context{DC: dc, Now: 0}
	moves, err := core.Consolidate(ctx, core.DefaultFactors(), core.DefaultParams())
	if err != nil {
		panic(err)
	}
	for _, mv := range moves {
		fmt.Printf("VM%d migrated PM%d -> PM%d\n", mv.VM, mv.From, mv.To)
	}
	fmt.Printf("non-idle machines: %d\n", dc.NonIdleCount())
	// Output:
	// VM1 migrated PM0 -> PM1
	// non-idle machines: 1
}

// ExampleBestPlacement shows the arrival path: the new request's matrix
// column is evaluated and the highest-probability machine wins.
func ExampleBestPlacement() {
	fast := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 2}},
	})
	for _, pm := range dc.PMs() {
		pm.State = cluster.PMOn
	}
	// PM1 already hosts work, so the efficiency factor prefers it.
	busy := cluster.NewVM(10, vector.New(4, 4), 86400, 86400, 0)
	if err := dc.PM(1).Host(busy); err != nil {
		panic(err)
	}
	dc.SetVMState(busy, cluster.VMRunning)

	arrival := cluster.NewVM(11, vector.New(1, 0.5), 3600, 3600, 0)
	pm := core.BestPlacement(&core.Context{DC: dc, Now: 0}, core.DefaultFactors(), arrival)
	fmt.Printf("new VM goes to PM%d\n", pm.ID)
	// Output:
	// new VM goes to PM1
}
