package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// bigScenario places many VMs across the Table II fleet so the matrix
// exceeds the parallel-build threshold when lowered.
func bigScenario(t *testing.T) (*Context, []*cluster.VM) {
	t.Helper()
	dc := cluster.TableIIFleet()
	for _, p := range dc.PMs() {
		p.State = cluster.PMOn
	}
	var vms []*cluster.VM
	id := cluster.VMID(1)
	for _, p := range dc.PMs() {
		for k := 0; k < 3; k++ {
			vm := cluster.NewVM(id, vector.New(1, 0.5), 50000+float64(id%7)*1000, 50000, 0)
			if !p.CanHost(vm.Demand) {
				break
			}
			if err := p.Host(vm); err != nil {
				t.Fatal(err)
			}
			dc.SetVMState(vm, cluster.VMRunning)
			vms = append(vms, vm)
			id++
		}
	}
	return &Context{DC: dc, Now: 0}, vms
}

// TestParallelFillMatchesSerial forces both build paths over the same
// state and requires bit-identical matrices.
func TestParallelFillMatchesSerial(t *testing.T) {
	ctxA, vmsA := bigScenario(t)
	ctxB, vmsB := bigScenario(t)

	old := parallelBuildThreshold
	defer func() { parallelBuildThreshold = old }()

	parallelBuildThreshold = 1 << 30 // force serial
	serial, err := NewMatrix(ctxA, DefaultFactors(), vmsA)
	if err != nil {
		t.Fatal(err)
	}
	parallelBuildThreshold = 1 // force parallel
	parallel, err := NewMatrix(ctxB, DefaultFactors(), vmsB)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Rows() != parallel.Rows() || serial.Cols() != parallel.Cols() {
		t.Fatalf("dims differ: %dx%d vs %dx%d", serial.Rows(), serial.Cols(), parallel.Rows(), parallel.Cols())
	}
	for r := 0; r < serial.Rows(); r++ {
		for c := 0; c < serial.Cols(); c++ {
			if serial.P(r, c) != parallel.P(r, c) {
				t.Fatalf("p[%d][%d] differs: %g vs %g", r, c, serial.P(r, c), parallel.P(r, c))
			}
		}
	}
}

// TestParallelConsolidateDeterministic runs full consolidation with the
// parallel build forced on and checks it matches the serial run move for
// move (the build is a pure function; only its schedule changes).
func TestParallelConsolidateDeterministic(t *testing.T) {
	run := func(threshold int) []Move {
		old := parallelBuildThreshold
		parallelBuildThreshold = threshold
		defer func() { parallelBuildThreshold = old }()
		ctx, _ := bigScenario(t)
		moves, err := Consolidate(ctx, DefaultFactors(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return moves
	}
	serial := run(1 << 30)
	parallel := run(1)
	if len(serial) != len(parallel) {
		t.Fatalf("move counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}
