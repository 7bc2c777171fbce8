package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

func priceDC() *cluster.Datacenter {
	fast := cluster.FastClass
	dc := cluster.MustNew(cluster.Config{
		RMin:   cluster.TableIIRMin.Clone(),
		Groups: []cluster.Group{{Class: &fast, Count: 4}},
	})
	for _, p := range dc.PMs() {
		p.State = cluster.PMOn
	}
	return dc
}

func TestNewPriceFactorPanics(t *testing.T) {
	cases := map[string]func(){
		"no regions": func() { NewPriceFactor(nil, "x", FlatPrices(nil)) },
		"nil price":  func() { NewPriceFactor([]string{"a"}, "a", nil) },
		"bad default": func() {
			NewPriceFactor([]string{"a"}, "b", FlatPrices(map[string]float64{"a": 1}))
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPriceFactorNormalization(t *testing.T) {
	dc := priceDC()
	pf := NewPriceFactor([]string{"east", "west"}, "east",
		FlatPrices(map[string]float64{"east": 0.10, "west": 0.25}))
	pf.Assign(0, "east")
	pf.Assign(1, "west")
	ctx := &Context{DC: dc, Now: 0}
	vm := cluster.NewVM(1, dc.RMin(), 1000, 1000, 0)

	if got := pf.Probability(ctx, vm, dc.PM(0), false); got != 1 {
		t.Errorf("cheapest region p = %g, want 1", got)
	}
	if got := pf.Probability(ctx, vm, dc.PM(1), false); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("expensive region p = %g, want 0.4", got)
	}
	// Unassigned PMs fall back to the default region.
	if got := pf.Probability(ctx, vm, dc.PM(3), false); got != 1 {
		t.Errorf("default region p = %g, want 1", got)
	}
	if pf.Region(3) != "east" {
		t.Errorf("Region(3) = %q", pf.Region(3))
	}
}

func TestPriceFactorInvalidPrice(t *testing.T) {
	dc := priceDC()
	pf := NewPriceFactor([]string{"a"}, "a", FlatPrices(map[string]float64{"a": 0}))
	ctx := &Context{DC: dc, Now: 0}
	if got := pf.Probability(ctx, nil, dc.PM(0), false); got != 0 {
		t.Errorf("zero price p = %g, want 0", got)
	}
}

func TestTimeOfUsePrices(t *testing.T) {
	price := TimeOfUsePrices(map[string]float64{"a": 0.2}, 8, 20, 0.5)
	if got := price("a", 12*3600); got != 0.2 {
		t.Errorf("peak price = %g", got)
	}
	if got := price("a", 2*3600); got != 0.1 {
		t.Errorf("off-peak price = %g", got)
	}
	// Next-day peak hours are also peak.
	if got := price("a", 86400+12*3600); got != 0.2 {
		t.Errorf("day-2 peak price = %g", got)
	}
}

func TestPriceFactorSteersConsolidation(t *testing.T) {
	// Two identical PMs in regions with a 3x price gap; VMs start in the
	// expensive region and must migrate to the cheap one.
	dc := priceDC()
	pf := NewPriceFactor([]string{"cheap", "dear"}, "cheap",
		FlatPrices(map[string]float64{"cheap": 0.1, "dear": 0.3}))
	pf.Assign(0, "dear")
	pf.Assign(1, "dear")
	pf.Assign(2, "cheap")
	pf.Assign(3, "cheap")

	factors := append(DefaultFactors(), pf)
	for i := cluster.VMID(1); i <= 2; i++ {
		vm := cluster.NewVM(i, vector.New(1, 0.5), 100000, 100000, 0)
		if err := dc.PM(cluster.PMID(i - 1)).Host(vm); err != nil { // PMs 0 and 1 (dear)
			t.Fatal(err)
		}
		dc.SetVMState(vm, cluster.VMRunning)
	}

	moves, err := Consolidate(&Context{DC: dc, Now: 0}, factors, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("price pressure produced no migrations")
	}
	for _, vm := range dc.RunningVMs() {
		if pf.Region(vm.Host) != "cheap" {
			t.Errorf("VM %d still in region %q on PM %d", vm.ID, pf.Region(vm.Host), vm.Host)
		}
	}
}

func TestPriceFactorName(t *testing.T) {
	pf := NewPriceFactor([]string{"a"}, "a", FlatPrices(map[string]float64{"a": 1}))
	if pf.Name() != "price" {
		t.Errorf("Name = %q", pf.Name())
	}
}
