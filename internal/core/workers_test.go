package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// Equivalence battery for MatrixOptions.Workers: every kernel the knob
// parallelizes must produce bit-identical results at any worker count —
// fresh builds, incremental trackers after randomized Apply sequences,
// consolidation move streams, and candidate shortlists. Workers 2 and 7
// exercise even and odd span splits (7 leaves a ragged tail span); the
// serial reference is an explicit Workers: 1.

// workerCounts are the parallel settings every equivalence test compares
// against the Workers: 1 reference.
var workerCounts = []int{2, 7}

// TestKernelWorkersDenseEquivalence builds the dense matrix serially and
// at each parallel worker count over identical fleets, requires Diff to
// pass (probabilities, trackers, Best), then drives both through the same
// randomized Apply sequence re-checking after every move.
func TestKernelWorkersDenseEquivalence(t *testing.T) {
	for _, w := range workerCounts {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			ctxS, vmsS := tableIIState(t, 120, 300, 11)
			ctxP, vmsP := tableIIState(t, 120, 300, 11)
			serial, err := NewMatrixWith(ctxS, DefaultFactors(), vmsS, MatrixOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewMatrixWith(ctxP, DefaultFactors(), vmsP, MatrixOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.Diff(par); err != nil {
				t.Fatalf("fresh build with %d workers diverges: %v", w, err)
			}
			rng := stats.NewRand(int64(100 + w))
			applied := 0
			for step := 0; step < 30; step++ {
				c := rng.Intn(serial.Cols())
				var rows []int
				for r := 0; r < serial.Rows(); r++ {
					if r != serial.curRow[c] && serial.p[r][c] > 0 {
						rows = append(rows, r)
					}
				}
				if len(rows) == 0 {
					continue
				}
				r := rows[rng.Intn(len(rows))]
				if err := serial.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				if err := par.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				applied++
				if err := serial.Diff(par); err != nil {
					t.Fatalf("after move %d: %v", applied, err)
				}
			}
			if applied < 10 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
		})
	}
}

// TestKernelWorkersSparseEquivalence is the sparse-engine counterpart:
// candidate-index sync, initial column sync, Best argmax, and shortlists
// must match the serial engine bit for bit at every worker count, before
// and after a randomized Apply sequence.
func TestKernelWorkersSparseEquivalence(t *testing.T) {
	for _, w := range workerCounts {
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			ctxS, vmsS := tableIIState(t, 100, 200, 31)
			ctxP, vmsP := tableIIState(t, 100, 200, 31)
			serial, err := NewSparseMatrix(ctxS, DefaultFactors(), vmsS, MatrixOptions{CandidateK: 16, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewSparseMatrix(ctxP, DefaultFactors(), vmsP, MatrixOptions{CandidateK: 16, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			checkShortlists := func(stage string) {
				t.Helper()
				for c := 0; c < serial.Cols(); c += 13 {
					a, b := serial.ColumnShortlist(c, 8), par.ColumnShortlist(c, 8)
					if len(a) != len(b) {
						t.Fatalf("%s: column %d shortlist lengths %d vs %d", stage, c, len(a), len(b))
					}
					for i := range a {
						if a[i].PM.ID != b[i].PM.ID || a[i].Probability != b[i].Probability {
							t.Fatalf("%s: column %d shortlist[%d]: (PM %d, %g) vs (PM %d, %g)",
								stage, c, i, a[i].PM.ID, a[i].Probability, b[i].PM.ID, b[i].Probability)
						}
					}
				}
			}
			if err := serial.DiffSparse(par); err != nil {
				t.Fatalf("fresh build with %d workers diverges: %v", w, err)
			}
			checkShortlists("fresh build")
			rng := stats.NewRand(int64(200 + w))
			applied := 0
			for step := 0; step < 25; step++ {
				// Random feasible move enumerated off a dense build over
				// the serial fixture, so move selection cannot depend on
				// the code under test.
				oracle, err := NewMatrix(ctxS, DefaultFactors(), vmsS)
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
				r := rows[rng.Intn(len(rows))]
				if err := serial.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				if err := par.Apply(r, c); err != nil {
					t.Fatal(err)
				}
				applied++
				if err := serial.DiffSparse(par); err != nil {
					t.Fatalf("after move %d: %v", applied, err)
				}
			}
			if applied < 8 {
				t.Fatalf("only %d random moves applied; property barely exercised", applied)
			}
			checkShortlists("after applies")
			if err := par.SelfCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelWorkersConsolidateEquivalence runs full Algorithm 1 passes —
// dense and sparse — at every worker count and requires the move streams
// (VM, endpoints, bit-identical gains, rounds) to match the serial run.
func TestKernelWorkersConsolidateEquivalence(t *testing.T) {
	params := Params{MIGThreshold: 1.05, MIGRound: 50}
	for _, k := range []int{0, 16} {
		engine := map[int]string{0: "dense", 16: "sparse"}[k]
		anyMoves := false
		for _, seed := range []int64{3, 7, 11, 19, 23} {
			ctxRef, _ := tableIIState(t, 100, 260, seed)
			ref, err := ConsolidateWith(ctxRef, DefaultFactors(), params, MatrixOptions{CandidateK: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			anyMoves = anyMoves || len(ref) > 0
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", engine, seed, w), func(t *testing.T) {
					ctx, _ := tableIIState(t, 100, 260, seed)
					moves, err := ConsolidateWith(ctx, DefaultFactors(), params, MatrixOptions{CandidateK: k, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if len(moves) != len(ref) {
						t.Fatalf("move counts differ: %d vs serial %d", len(moves), len(ref))
					}
					for i := range ref {
						if moves[i] != ref[i] {
							t.Fatalf("move %d: %+v vs serial %+v", i, moves[i], ref[i])
						}
					}
				})
			}
		}
		if !anyMoves {
			t.Fatalf("%s: no seed produced moves; the states are too easy to prove anything", engine)
		}
	}
}

// TestKernelWorkersArrivalEquivalence pins the sparse arrival path (which
// syncs the candidate index under the workers setting) to the serial
// decision for a spread of arrival demands.
func TestKernelWorkersArrivalEquivalence(t *testing.T) {
	ctx, _ := tableIIState(t, 100, 200, 43)
	demands := []vector.V{vector.New(1, 0.5), vector.New(2, 1), vector.New(1, 2)}
	for _, w := range workerCounts {
		for di, d := range demands {
			arrival := cluster.NewVM(cluster.VMID(1<<20), d, 5400, 5400, ctx.Now)
			want := BestPlacementWith(ctx, DefaultFactors(), arrival, MatrixOptions{CandidateK: 16, Workers: 1})
			got := BestPlacementWith(ctx, DefaultFactors(), arrival, MatrixOptions{CandidateK: 16, Workers: w})
			switch {
			case (want == nil) != (got == nil):
				t.Fatalf("demand %d workers %d: nil mismatch (%v vs %v)", di, w, got, want)
			case want != nil && want.ID != got.ID:
				t.Fatalf("demand %d workers %d: placed on PM %d, serial picked %d", di, w, got.ID, want.ID)
			}
		}
	}
}

// TestKernelWorkersSerialAllocBudget pins Workers: 1 to the hot paths'
// existing allocation budgets: forcing the serial path must not cost a
// single extra allocation over the default configuration the main alloc
// tests measure.
func TestKernelWorkersSerialAllocBudget(t *testing.T) {
	ctx, _ := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	params := DefaultParams()
	opts := MatrixOptions{Workers: 1}
	arrival := cluster.NewVM(cluster.VMID(1<<20), vector.New(2, 1), 5400, 5400, ctx.Now)

	for i := 0; i < 3; i++ {
		if BestPlacementWith(ctx, factors, arrival, opts) == nil {
			t.Fatal("no placement found")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		BestPlacementWith(ctx, factors, arrival, opts)
	})
	if avg > arrivalAllocCeiling {
		t.Fatalf("BestPlacementWith(Workers: 1) allocates %.2f allocs/op on a warm context, budget %d",
			avg, arrivalAllocCeiling)
	}

	if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
		t.Fatal(err)
	}
	nVMs := len(ctx.DC.Running())
	if nVMs == 0 {
		t.Fatal("bench state has no running VMs")
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perVM := avg / float64(nVMs); perVM > consolidateAllocsPerVM {
		t.Fatalf("ConsolidateWith(Workers: 1) allocates %.1f allocs/op (%.3f per VM column, budget %.2f)",
			avg, perVM, consolidateAllocsPerVM)
	}
}

// TestWorkerBudgetAccounting exercises the token pool's borrow/return
// arithmetic directly: the pool must never hand out more than its
// capacity, and returns must restore it exactly.
func TestWorkerBudgetAccounting(t *testing.T) {
	capacity := BorrowWorkers(1 << 20) // drain whatever is free
	ReturnWorkers(capacity)
	got := BorrowWorkers(capacity)
	if got != capacity {
		ReturnWorkers(got)
		t.Fatalf("borrowed %d of %d free tokens", got, capacity)
	}
	if extra := BorrowWorkers(1); extra != 0 {
		ReturnWorkers(got + extra)
		t.Fatalf("empty budget still lent %d token(s)", extra)
	}
	ReturnWorkers(got)
	if again := BorrowWorkers(capacity); again != capacity {
		ReturnWorkers(again)
		t.Fatalf("budget not restored: borrowed %d of %d after return", again, capacity)
	}
	ReturnWorkers(capacity)
}

// BenchmarkKernelParallelBuild measures the full matrix build (dense and
// sparse) across worker counts. Parallel results are asserted identical
// to the serial build before timing — a benchmark that silently raced
// would be worse than no benchmark.
func BenchmarkKernelParallelBuild(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("dense/workers%d", w), func(b *testing.B) {
			ctx, vms := tableIIState(b, 1000, 2000, 7)
			opts := MatrixOptions{Workers: w}
			if w > 1 {
				ref, err := NewMatrixWith(ctx, DefaultFactors(), vms, MatrixOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				m, err := NewMatrixWith(ctx, DefaultFactors(), vms, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := ref.Diff(m); err != nil {
					b.Fatalf("parallel build diverges: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewMatrixWith(ctx, DefaultFactors(), vms, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparse/workers%d", w), func(b *testing.B) {
			ctx, vms := tableIIState(b, 1000, 2000, 7)
			opts := MatrixOptions{CandidateK: 64, Workers: w}
			if w > 1 {
				ref, err := NewSparseMatrix(ctx, DefaultFactors(), vms, MatrixOptions{CandidateK: 64, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				sm, err := NewSparseMatrix(ctx, DefaultFactors(), vms, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := ref.DiffSparse(sm); err != nil {
					b.Fatalf("parallel build diverges: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSparseMatrix(ctx, DefaultFactors(), vms, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelParallelRound measures a full consolidation pass across
// worker counts (build + Algorithm 1 rounds), the in-run unit the
// -kernel-workers flag actually scales.
func BenchmarkKernelParallelRound(b *testing.B) {
	params := DefaultParams()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			ctx, _ := tableIIState(b, 1000, 2000, 7)
			opts := MatrixOptions{Workers: w}
			// Settle the state: execute any profitable moves once so the
			// timed passes are steady-state evaluation.
			if _, err := ConsolidateWith(ctx, DefaultFactors(), params, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ConsolidateWith(ctx, DefaultFactors(), params, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
