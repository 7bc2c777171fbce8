package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// TestSparseMatrixMatchesDenseAfterRandomApplies is the sparse engine's
// incremental-drift property test: after every move in a randomized Apply
// sequence, the live SparseMatrix trackers must be bit-identical to a
// from-scratch dense Matrix over the mutated fleet, and the candidate
// index must survive its structural self check.
func TestSparseMatrixMatchesDenseAfterRandomApplies(t *testing.T) {
	for _, k := range []int{1, 64} {
		t.Run(map[int]string{1: "k1-overflowing", 64: "k64"}[k], func(t *testing.T) {
			ctx, vms := tableIIState(t, 100, 150, 23)
			sm, err := NewSparseMatrix(ctx, DefaultFactors(), vms, MatrixOptions{CandidateK: k})
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.verifyDense(); err != nil {
				t.Fatalf("fresh build: %v", err)
			}
			rng := stats.NewRand(42)
			applied := 0
			for step := 0; step < 40; step++ {
				// Random feasible move, enumerated off a dense oracle
				// build so move selection cannot depend on the code
				// under test.
				oracle, err := NewMatrix(ctx, DefaultFactors(), vms)
				if err != nil {
					t.Fatal(err)
				}
				c := rng.Intn(oracle.Cols())
				var rows []int
				for r := 0; r < oracle.Rows(); r++ {
					if r != oracle.curRow[c] && oracle.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				oracle.Release()
				if len(rows) == 0 {
					continue
				}
				if err := sm.Apply(rows[rng.Intn(len(rows))], c); err != nil {
					t.Fatal(err)
				}
				applied++
				if err := sm.verifyDense(); err != nil {
					t.Fatalf("after move %d: %v", applied, err)
				}
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

// TestSparseConsolidateMatchesDense proves Algorithm 1 emits an identical
// move sequence (VM, endpoints, bit-identical gains, rounds) through the
// sparse candidate engine and the dense kernel, across several fleet
// seeds.
func TestSparseConsolidateMatchesDense(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	anyMoves := false
	for _, seed := range []int64{3, 7, 11, 19, 23} {
		ctxDense, _ := tableIIState(t, 100, 260, seed)
		ctxSparse, _ := tableIIState(t, 100, 260, seed)

		dense, err := ConsolidateWith(ctxDense, DefaultFactors(), params, MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := ConsolidateWith(ctxSparse, DefaultFactors(), params, MatrixOptions{CandidateK: 64})
		if err != nil {
			t.Fatal(err)
		}
		if len(dense) != len(sparse) {
			t.Fatalf("seed %d: move counts differ: dense %d != sparse %d", seed, len(dense), len(sparse))
		}
		for i := range dense {
			if dense[i] != sparse[i] {
				t.Fatalf("seed %d move %d: dense %+v != sparse %+v", seed, i, dense[i], sparse[i])
			}
		}
		anyMoves = anyMoves || len(dense) > 0
		if err := ctxSparse.DC.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	if !anyMoves {
		t.Fatal("no seed produced moves; the states are too easy to prove anything")
	}
}

// TestSparseConsolidateZeroCurrentProbability is the rescue-path
// equivalence check: a VM on a zero-reliability host has curProb == 0, so
// the sparse engine must emit the same +Inf-gain rescue move as dense.
func TestSparseConsolidateZeroCurrentProbability(t *testing.T) {
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
	host.Reliability = 0

	ctx := NewContext(dc).At(100)
	moves, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{CandidateK: 8})
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
	if err := dc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSparseArrivalMatchesDense checks BestPlacementWith: with CandidateK
// set, the candidate-index argmax must return the exact PM the dense scan
// picks, for unhosted arrivals and for hosted VMs (whose overhead rule
// differs), across shapes and fleet seeds.
func TestSparseArrivalMatchesDense(t *testing.T) {
	factors := DefaultFactors()
	shapes := []vector.V{
		vector.New(1, 0.25), vector.New(1, 1), vector.New(2, 1), vector.New(2, 4),
	}
	for _, seed := range []int64{5, 13, 29} {
		ctx, vms := tableIIState(t, 100, 200, seed)
		id := cluster.VMID(9000)
		for _, demand := range shapes {
			id++
			arrival := cluster.NewVM(id, demand, 5400, 5400, ctx.Now)
			dense := BestPlacement(ctx, factors, arrival)
			sparse := BestPlacementWith(ctx, factors, arrival, MatrixOptions{CandidateK: 64})
			if dense != sparse {
				t.Fatalf("seed %d shape %v: dense %v != sparse %v", seed, demand, pmID(dense), pmID(sparse))
			}
		}
		// A hosted VM pays creation + migration overhead on the target;
		// re-placing an existing running VM exercises that branch.
		hosted := vms[len(vms)/2]
		dense := BestPlacement(ctx, factors, hosted)
		sparse := BestPlacementWith(ctx, factors, hosted, MatrixOptions{CandidateK: 64})
		if dense != sparse {
			t.Fatalf("seed %d hosted VM %d: dense %v != sparse %v", seed, hosted.ID, pmID(dense), pmID(sparse))
		}
		// CandidateK == 0 must leave the dense path in charge.
		if got := BestPlacementWith(ctx, factors, hosted, MatrixOptions{}); got != dense {
			t.Fatalf("seed %d: CandidateK=0 diverged from BestPlacement", seed)
		}
	}
}

func pmID(pm *cluster.PM) any {
	if pm == nil {
		return "<nil>"
	}
	return pm.ID
}

// TestSparseShortlistProperty is the satellite property test: for random
// fleets and VM shapes the top-K shortlist is exactly the length-K prefix
// of the dense ranking (so in particular it always contains the dense
// argmax), and with K at least the feasible count it equals the full dense
// ranking — including immediately after randomized Apply sequences.
func TestSparseShortlistProperty(t *testing.T) {
	factors := DefaultFactors()
	for _, seed := range []int64{2, 9, 31} {
		ctx, vms := tableIIState(t, 60, 120, seed)
		rng := stats.NewRand(seed * 977)
		checkShortlists := func(stage string) {
			t.Helper()
			id := cluster.VMID(9500)
			for trial := 0; trial < 6; trial++ {
				id++
				demand := vector.New(float64(1+rng.Intn(2)), []float64{0.25, 0.5, 1, 2}[rng.Intn(4)])
				probe := cluster.NewVM(id, demand, float64(600+rng.Intn(86400)), 0, ctx.Now)
				ranked := RankPlacements(ctx, factors, probe)
				for _, k := range []int{1, 4, 16, 0} {
					got, ok := ArrivalShortlist(ctx, factors, probe, k)
					if !ok {
						t.Fatalf("%s: shortlist unavailable for the default factors", stage)
					}
					want := ranked
					if k > 0 && len(want) > k {
						want = want[:k]
					}
					if len(got) != len(want) {
						t.Fatalf("%s seed %d k=%d: shortlist has %d entries, dense prefix %d",
							stage, seed, k, len(got), len(want))
					}
					for i := range got {
						if got[i].PM != want[i].PM || got[i].Probability != want[i].Probability {
							t.Fatalf("%s seed %d k=%d entry %d: sparse (PM%d, %v) != dense (PM%d, %v)",
								stage, seed, k, i, got[i].PM.ID, got[i].Probability,
								want[i].PM.ID, want[i].Probability)
						}
					}
					if len(ranked) > 0 && k > 0 {
						if best := BestPlacement(ctx, factors, probe); got[0].PM != best {
							t.Fatalf("%s seed %d k=%d: shortlist head PM%d != dense argmax PM%d",
								stage, seed, k, got[0].PM.ID, best.ID)
						}
					}
				}
			}
		}
		checkShortlists("fresh")

		// Mutate the fleet through a random Apply sequence on the sparse
		// engine, then re-check: the index must have tracked every
		// membership change.
		sm, err := NewSparseMatrix(ctx, factors, vms, MatrixOptions{CandidateK: 64})
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		for step := 0; step < 25 && applied < 12; step++ {
			oracle, err := NewMatrix(ctx, factors, vms)
			if err != nil {
				t.Fatal(err)
			}
			c := rng.Intn(oracle.Cols())
			var rows []int
			for r := 0; r < oracle.Rows(); r++ {
				if r != oracle.curRow[c] && oracle.p[r][c] > 0 {
					rows = append(rows, r)
				}
			}
			oracle.Release()
			if len(rows) == 0 {
				continue
			}
			if err := sm.Apply(rows[rng.Intn(len(rows))], c); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		if applied < 5 {
			t.Fatalf("only %d moves applied; post-Apply property barely exercised", applied)
		}
		checkShortlists("after-applies")
	}
}

// TestSparseNonCanonicalFallback pins the fallback contract: any factor
// program other than the canonical four must route through the dense
// engine even with CandidateK set, and produce its usual result.
func TestSparseNonCanonicalFallback(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	factors := append(DefaultFactors(), offsetFactor{})
	ctxA, _ := tableIIState(t, 100, 260, 11)
	ctxB, _ := tableIIState(t, 100, 260, 11)
	plain, err := ConsolidateWith(ctxA, factors, params, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaK, err := ConsolidateWith(ctxB, factors, params, MatrixOptions{CandidateK: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(viaK) {
		t.Fatalf("move counts differ: %d != %d", len(plain), len(viaK))
	}
	for i := range plain {
		if plain[i] != viaK[i] {
			t.Fatalf("move %d: %+v != %+v", i, plain[i], viaK[i])
		}
	}
	if _, ok := ArrivalShortlist(ctxA, factors, cluster.NewVM(9999, vector.New(1, 1), 5400, 0, ctxA.Now), 8); ok {
		t.Fatal("ArrivalShortlist claimed coverage of a non-canonical factor program")
	}
}
