package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// tableIIState builds a deterministic mid-simulation snapshot of a
// Table II-mix fleet: all pmCount PMs on, nVMs requests with varied
// demands, estimates, and elapsed runtimes, placed first-fit. Calling it
// twice with the same arguments yields two independent but identical
// states, which the Consolidate equivalence test needs (Algorithm 1
// mutates the fleet it runs on).
func tableIIState(tb testing.TB, pmCount, nVMs int, seed int64) (*Context, []*cluster.VM) {
	tb.Helper()
	dc := cluster.TableIIFleetScaled(pmCount)
	for _, pm := range dc.PMs() {
		pm.State = cluster.PMOn
	}
	rng := stats.NewRand(seed)
	const now = 7200.0
	var vms []*cluster.VM
	mems := []float64{0.25, 0.5, 1, 2}
	for id := 1; id <= nVMs; id++ {
		demand := vector.New(float64(1+rng.Intn(2)), mems[rng.Intn(len(mems))])
		est := float64(600 + rng.Intn(86400))
		vm := cluster.NewVM(cluster.VMID(id), demand, est, est, 0)
		placed := false
		for _, pm := range dc.PMs() {
			if pm.CanHost(vm.Demand) {
				if err := pm.Host(vm); err != nil {
					tb.Fatal(err)
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
	if len(vms) < nVMs/2 {
		tb.Fatalf("only placed %d of %d VMs", len(vms), nVMs)
	}
	return &Context{DC: dc, Now: now}, vms
}

// offsetFactor is a user-supplied extra factor (pure, PM-dependent) used
// to exercise the kernel's generic-composition path.
type offsetFactor struct{}

func (offsetFactor) Name() string { return "offset" }

func (offsetFactor) Probability(_ *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return 1 - float64(int(pm.ID)%5)/100
}

// assertMatricesEqual requires bit-identical probabilities and trackers.
func assertMatricesEqual(t *testing.T, fast, slow *Matrix) {
	t.Helper()
	if fast.Rows() != slow.Rows() || fast.Cols() != slow.Cols() {
		t.Fatalf("dims %dx%d != %dx%d", fast.Rows(), fast.Cols(), slow.Rows(), slow.Cols())
	}
	for r := 0; r < fast.Rows(); r++ {
		for c := 0; c < fast.Cols(); c++ {
			if fast.p[r][c] != slow.p[r][c] {
				t.Fatalf("p[%d][%d]: kernel %v != generic %v (VM %d on PM %d)",
					r, c, fast.p[r][c], slow.p[r][c], fast.vms[c].ID, fast.pms[r].ID)
			}
		}
	}
	for c := 0; c < fast.Cols(); c++ {
		if fast.curRow[c] != slow.curRow[c] || fast.curProb[c] != slow.curProb[c] {
			t.Fatalf("col %d normalizer: kernel (%d, %v) != generic (%d, %v)",
				c, fast.curRow[c], fast.curProb[c], slow.curRow[c], slow.curProb[c])
		}
		if fast.bestRow[c] != slow.bestRow[c] || fast.bestGain[c] != slow.bestGain[c] {
			t.Fatalf("col %d best: kernel (%d, %v) != generic (%d, %v)",
				c, fast.bestRow[c], fast.bestGain[c], slow.bestRow[c], slow.bestGain[c])
		}
	}
	fr, fc, fg, fok := fast.Best()
	sr, sc, sg, sok := slow.Best()
	if fr != sr || fc != sc || fg != sg || fok != sok {
		t.Fatalf("Best: kernel (%d, %d, %v, %v) != generic (%d, %d, %v, %v)",
			fr, fc, fg, fok, sr, sc, sg, sok)
	}
}

// TestKernelEquivalence proves the factored kernel yields bit-identical
// matrices to the generic Factor-interface path on the Table II fleet, for
// the default factors, for ablation subsets, and for a user factor
// composed on top.
func TestKernelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		factors []Factor
		kernel  bool // kernel path expected to engage
	}{
		{"default", DefaultFactors(), true},
		{"no-vir", []Factor{ResourceFactor{}, ReliabilityFactor{}, EfficiencyFactor{}}, true},
		{"no-eff", []Factor{ResourceFactor{}, VirtualizationFactor{}, ReliabilityFactor{}}, true},
		{"no-rel", []Factor{ResourceFactor{}, VirtualizationFactor{}, EfficiencyFactor{}}, true},
		{"extra-on-top", append(DefaultFactors(), offsetFactor{}), true},
		{"pure-custom", []Factor{offsetFactor{}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, vms := tableIIState(t, 100, 260, 7)
			fast, err := NewMatrix(ctx, tc.factors, vms)
			if err != nil {
				t.Fatal(err)
			}
			if got := fast.kern != nil; got != tc.kernel {
				t.Fatalf("kernel engaged = %v, want %v", got, tc.kernel)
			}
			slow, err := NewMatrixWith(ctx, tc.factors, vms, MatrixOptions{DisableKernel: true})
			if err != nil {
				t.Fatal(err)
			}
			if slow.kern != nil {
				t.Fatal("DisableKernel did not disable the kernel")
			}
			assertMatricesEqual(t, fast, slow)
		})
	}
}

// TestKernelEquivalenceConsolidate proves Algorithm 1 produces identical
// move sequences (VM, endpoints, bit-identical gains, rounds) through both
// evaluation paths on the Table II fleet.
func TestKernelEquivalenceConsolidate(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	ctxFast, _ := tableIIState(t, 100, 260, 11)
	ctxSlow, _ := tableIIState(t, 100, 260, 11)

	fast, err := ConsolidateWith(ctxFast, DefaultFactors(), params, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ConsolidateWith(ctxSlow, DefaultFactors(), params, MatrixOptions{DisableKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) == 0 {
		t.Fatal("consolidation produced no moves; the state is too easy to prove anything")
	}
	if len(fast) != len(slow) {
		t.Fatalf("move counts differ: kernel %d != generic %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("move %d: kernel %+v != generic %+v", i, fast[i], slow[i])
		}
	}
	if err := ctxFast.DC.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestKernelArrivalEquivalence checks the fast arrival path: BestPlacement
// must return RankPlacements' top entry, and the kernel-scored ranking must
// equal a naive Joint scan — including the unhosted-VM overhead rule
// (creation only, no migration share).
func TestKernelArrivalEquivalence(t *testing.T) {
	ctx, _ := tableIIState(t, 100, 200, 13)
	factors := DefaultFactors()
	arrival := cluster.NewVM(9001, vector.New(2, 1), 5400, 5400, ctx.Now)

	ranked := RankPlacements(ctx, factors, arrival)
	if len(ranked) == 0 {
		t.Fatal("no feasible placements for the arrival")
	}
	if best := BestPlacement(ctx, factors, arrival); best != ranked[0].PM {
		t.Fatalf("BestPlacement = PM%d, RankPlacements[0] = PM%d", best.ID, ranked[0].PM.ID)
	}

	byPM := make(map[cluster.PMID]float64, len(ranked))
	for _, pl := range ranked {
		byPM[pl.PM.ID] = pl.Probability
	}
	n := 0
	for _, pm := range ctx.DC.ActivePMs() {
		want := Joint(ctx, factors, arrival, pm, false)
		if want > 0 {
			n++
		}
		if got := byPM[pm.ID]; got != want {
			t.Fatalf("PM %d: kernel arrival probability %v != generic %v", pm.ID, got, want)
		}
	}
	if n != len(ranked) {
		t.Fatalf("ranking has %d entries, generic scan found %d feasible", len(ranked), n)
	}
}

// TestMatrixTrackersMatchRebuildAfterRandomApplies is the incremental-
// drift property test: after a randomized sequence of Apply calls, the
// live matrix's curRow/curProb/bestRow/bestGain trackers (and the gain
// heap behind Best) must match a from-scratch NewMatrix rebuild of the
// mutated datacenter, on both evaluation paths.
func TestMatrixTrackersMatchRebuildAfterRandomApplies(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "kernel"
		if disable {
			name = "generic"
		}
		t.Run(name, func(t *testing.T) {
			ctx, vms := tableIIState(t, 100, 150, 23)
			opts := MatrixOptions{DisableKernel: disable}
			m, err := NewMatrixWith(ctx, DefaultFactors(), vms, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRand(42)
			applied := 0
			for step := 0; step < 40; step++ {
				// Random feasible move: any positive cell off the
				// current host.
				c := rng.Intn(m.Cols())
				var rows []int
				for r := 0; r < m.Rows(); r++ {
					if r != m.curRow[c] && m.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				if len(rows) == 0 {
					continue
				}
				if err := m.Apply(rows[rng.Intn(len(rows))], c); err != nil {
					t.Fatal(err)
				}
				applied++

				fresh, err := NewMatrixWith(ctx, DefaultFactors(), vms, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertMatricesEqual(t, m, fresh)
			}
			if applied < 10 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
			if err := ctx.DC.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConsolidateZeroCurrentProbability exercises the curProb == 0 → +Inf
// gain path end-to-end through Consolidate with the real factors: a VM
// whose host's reliability has decayed to zero has a zero-probability
// placement, so any feasible alternative must be taken regardless of
// MIG_threshold, with an infinite recorded gain.
func TestConsolidateZeroCurrentProbability(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "kernel"
		if disable {
			name = "generic"
		}
		t.Run(name, func(t *testing.T) {
			dc := cluster.TableIIFleetScaled(4)
			for _, pm := range dc.PMs() {
				pm.State = cluster.PMOn
			}
			vm := cluster.NewVM(1, vector.New(1, 0.5), 36000, 36000, 0)
			host := dc.PM(0)
			if err := host.Host(vm); err != nil {
				t.Fatal(err)
			}
			dc.SetVMState(vm, cluster.VMRunning)
			// The failure model decays per-PM reliability; zero means
			// the current placement's joint probability is zero.
			host.Reliability = 0

			ctx := NewContext(dc).At(100)
			moves, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{DisableKernel: disable})
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) != 1 {
				t.Fatalf("moves = %+v, want exactly one rescue migration", moves)
			}
			mv := moves[0]
			if mv.VM != 1 || mv.From != 0 || mv.To == 0 {
				t.Errorf("move = %+v, want VM1 off PM0", mv)
			}
			if !math.IsInf(mv.Gain, 1) {
				t.Errorf("gain = %v, want +Inf (zero-probability current placement)", mv.Gain)
			}
			if vm.Host == 0 {
				t.Error("VM still on the unreliable host")
			}
			if err := dc.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
