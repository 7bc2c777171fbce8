package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/vector"
)

// persistentWorld drives one fleet through the simulator's kinds of change
// — arrivals, departures, boots, shutdowns, failures, repairs and the
// passage of time — with every VM state change going through the data
// center, as the simulator's do.
type persistentWorld struct {
	t      *testing.T
	ctx    *Context
	rng    *stats.Stream
	nextID cluster.VMID
	opts   MatrixOptions
}

func newPersistentWorld(t *testing.T, seed int64) *persistentWorld {
	ctx, vms := tableIIState(t, 40, 60, seed)
	return &persistentWorld{
		t:      t,
		ctx:    ctx,
		rng:    stats.NewRand(seed),
		nextID: vms[len(vms)-1].ID + 1,
		opts:   MatrixOptions{CandidateK: DefaultCandidateK},
	}
}

func (w *persistentWorld) arrive() {
	mems := []float64{0.25, 0.5, 1, 2}
	est := float64(600 + w.rng.Intn(86400))
	vm := cluster.NewVM(w.nextID, vector.New(float64(1+w.rng.Intn(2)), mems[w.rng.Intn(len(mems))]), est, est, w.ctx.Now)
	w.nextID++
	pm := BestPlacementWith(w.ctx, DefaultFactors(), vm, w.opts)
	if pm == nil {
		return
	}
	if err := pm.Host(vm); err != nil {
		w.t.Fatal(err)
	}
	vm.StartTime = w.ctx.Now
	w.ctx.DC.SetVMState(vm, cluster.VMRunning)
}

func (w *persistentWorld) depart() {
	running := w.ctx.DC.Running()
	if len(running) == 0 {
		return
	}
	vm := running[w.rng.Intn(len(running))]
	if err := w.ctx.DC.PM(vm.Host).Evict(vm); err != nil {
		w.t.Fatal(err)
	}
	w.ctx.DC.SetVMState(vm, cluster.VMFinished)
}

func (w *persistentWorld) pick(ok func(*cluster.PM) bool) *cluster.PM {
	var pool []*cluster.PM
	for _, pm := range w.ctx.DC.PMs() {
		if ok(pm) {
			pool = append(pool, pm)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[w.rng.Intn(len(pool))]
}

func (w *persistentWorld) boot() {
	if pm := w.pick(func(p *cluster.PM) bool { return p.State == cluster.PMOff }); pm != nil {
		pm.State = cluster.PMBooting
	}
}

func (w *persistentWorld) finishBoot() {
	if pm := w.pick(func(p *cluster.PM) bool { return p.State == cluster.PMBooting }); pm != nil {
		pm.State = cluster.PMOn
	}
}

func (w *persistentWorld) shutdown() {
	if pm := w.pick(func(p *cluster.PM) bool { return p.Idle() }); pm != nil {
		pm.State = cluster.PMOff
	}
}

// fail kills an on PM: its VMs are evicted and re-placed as new requests,
// and its reliability decays.
func (w *persistentWorld) fail() {
	pm := w.pick(func(p *cluster.PM) bool { return p.State == cluster.PMOn && p.VMCount() > 0 })
	if pm == nil {
		return
	}
	victims := pm.VMs()
	for _, vm := range victims {
		if err := pm.Evict(vm); err != nil {
			w.t.Fatal(err)
		}
		w.ctx.DC.SetVMState(vm, cluster.VMQueued)
	}
	pm.State = cluster.PMFailed
	pm.Reliability *= 0.9
	for _, vm := range victims {
		if to := BestPlacementWith(w.ctx, DefaultFactors(), vm, w.opts); to != nil {
			if err := to.Host(vm); err != nil {
				w.t.Fatal(err)
			}
			w.ctx.DC.SetVMState(vm, cluster.VMRunning)
		}
	}
}

func (w *persistentWorld) repair() {
	if pm := w.pick(func(p *cluster.PM) bool { return p.State == cluster.PMFailed }); pm != nil {
		pm.State = cluster.PMOff
	}
}

// check syncs the persistent engine — the per-pass path — and requires it
// equal to a fresh sparse build and to a dense build of the same state.
func (w *persistentWorld) check(step int, op string) {
	w.t.Helper()
	sm, err := w.ctx.SparseEngine(DefaultFactors(), w.opts)
	if err != nil {
		w.t.Fatalf("step %d (%s): persistent sync: %v", step, op, err)
	}
	if err := sm.SelfCheck(); err != nil {
		w.t.Fatalf("step %d (%s): persistent self-check: %v", step, op, err)
	}
	vms := MigratableVMs(w.ctx.DC)
	fresh, err := NewSparseMatrix(w.ctx, DefaultFactors(), vms, w.opts)
	if err != nil {
		w.t.Fatalf("step %d (%s): fresh build: %v", step, op, err)
	}
	if err := sm.DiffSparse(fresh); err != nil {
		w.t.Fatalf("step %d (%s): persistent vs fresh: %v", step, op, err)
	}
	dense, err := NewMatrix(NewContext(w.ctx.DC).At(w.ctx.Now), DefaultFactors(), vms)
	if err != nil {
		w.t.Fatalf("step %d (%s): dense build: %v", step, op, err)
	}
	defer dense.Release()
	if err := sm.DiffDense(dense); err != nil {
		w.t.Fatalf("step %d (%s): persistent vs dense: %v", step, op, err)
	}
}

// TestPersistentSparseMatchesFresh is the persistent engine's delta
// property test: across randomized arrivals, departures, boots,
// shutdowns, failures, repairs, clock advances and Algorithm 1 passes, the
// Context's engine — fed only deltas — must stay tracker-for-tracker
// identical to a from-scratch sparse build and to a dense build after
// every step.
func TestPersistentSparseMatchesFresh(t *testing.T) {
	for _, seed := range []int64{5, 17, 29, 41} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newPersistentWorld(t, seed)
			ops := []struct {
				name string
				fn   func()
			}{
				{"arrive", w.arrive},
				{"arrive", w.arrive},
				{"depart", w.depart},
				{"boot", w.boot},
				{"boot-done", w.finishBoot},
				{"shutdown", w.shutdown},
				{"fail", w.fail},
				{"repair", w.repair},
				{"advance", func() { w.ctx.Now += float64(1 + w.rng.Intn(3600)) }},
				{"consolidate", func() {
					if _, err := ConsolidateWith(w.ctx, DefaultFactors(), DefaultParams(), w.opts); err != nil {
						t.Fatal(err)
					}
				}},
			}
			seen := map[string]int{}
			for step := 0; step < 300; step++ {
				op := ops[w.rng.Intn(len(ops))]
				op.fn()
				seen[op.name]++
				w.check(step, op.name)
			}
			for _, op := range ops {
				if seen[op.name] == 0 {
					t.Fatalf("operation %s never ran", op.name)
				}
			}
			if err := w.ctx.DC.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPersistentSparseAllocBudget pins the persistent engine's steady
// state: once warm, a consolidation pass with no membership change
// allocates nothing, and one VM leaving and rejoining the column set costs
// at most a small constant.
func TestPersistentSparseAllocBudget(t *testing.T) {
	ctx, vms := tableIIState(t, 200, 400, 7)
	factors := DefaultFactors()
	params := DefaultParams()
	opts := MatrixOptions{CandidateK: DefaultCandidateK}
	pass := func() {
		if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Warm until Algorithm 1 has nothing left to do at this clock, so the
	// measured passes make no moves.
	for i := 0; i < 50; i++ {
		moves, err := ConsolidateWith(ctx, factors, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) == 0 {
			break
		}
	}
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Fatalf("steady-state persistent pass allocates %.2f allocs/op, budget 0", avg)
	}
	vm := vms[len(vms)/2]
	toggle := func() {
		ctx.DC.SetVMState(vm, cluster.VMMigrating) // leaves the column set
		pass()
		ctx.DC.SetVMState(vm, cluster.VMRunning) // rejoins it
		pass()
	}
	toggle()
	const joinLeaveCeiling = 2
	if avg := testing.AllocsPerRun(50, toggle); avg > joinLeaveCeiling {
		t.Fatalf("a leave and a join pass allocate %.2f allocs/op, budget %d", avg, joinLeaveCeiling)
	}
}

// BenchmarkConsolidatePersistent times one Algorithm 1 pass on a warm
// persistent engine as the simulator runs it: the clock advances by one
// second per pass, so every pass re-derives p_vir and rescans every
// column's score groups, and one VM leaves or rejoins the column set.
func BenchmarkConsolidatePersistent(b *testing.B) {
	ctx, vms := tableIIState(b, 100, 300, 7)
	factors := DefaultFactors()
	params := DefaultParams()
	opts := MatrixOptions{CandidateK: DefaultCandidateK}
	if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
		b.Fatal(err)
	}
	vm := vms[len(vms)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Now++
		if vm.State == cluster.VMRunning {
			ctx.DC.SetVMState(vm, cluster.VMMigrating)
		} else {
			ctx.DC.SetVMState(vm, cluster.VMRunning)
		}
		if _, err := ConsolidateWith(ctx, factors, params, opts); err != nil {
			b.Fatal(err)
		}
	}
}
