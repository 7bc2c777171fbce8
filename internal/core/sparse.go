package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// SparseMatrix is the candidate-set consolidation engine behind
// MatrixOptions.CandidateK: it maintains the same per-column trackers as
// the dense Matrix — current-placement normalizer, best alternative row,
// best gain — but derives them from the Context's candidate index
// (candidates.go) instead of a materialized M x N probability matrix.
// Column scans touch one score group per distinct (class, level,
// reliability) signature rather than one row per PM, and an Apply
// re-derives only the two migration endpoints plus the columns their
// membership events can actually affect.
//
// The engine is persistent: the consolidation path keeps one per Context
// (Context.SparseEngine) and each pass feeds it only deltas — VMs that
// entered or left the column set, PMs whose (version, state, reliability)
// stamp changed. Its state is keyed by PM ID and by a per-VM column slot
// that a VM keeps from the pass it joins until the pass it leaves, so a
// join or a leave renumbers nothing. What it cannot reuse is p_vir: Eq. 3
// reads the remaining runtime at the pass's clock, so every pass
// recomputes each column's per-class vir and rescans its score groups.
//
// Every decision is bit-identical to the dense engine by construction:
// group values are evaluated in cellDefault's multiplication order on
// bit-identical operands, ties resolve to the lowest member ID (dense's
// ID-ordered strict-greater scan), and Best applies the dense gain heap's
// total order. The contract is enforced three ways — DiffDense against a dense
// build (the auditor's SparseCheck), the per-Apply SelfAudit rebuild, and
// the differential fuzz harness in internal/audit.
type SparseMatrix struct {
	ctx     *Context
	factors []Factor
	opts    MatrixOptions
	cand    *candIndex

	// The positional view — the dense engine's row and column order — is
	// what the exported methods and the Diff oracles speak: pms are the
	// active PMs by ascending ID, vms the columns by ascending VM ID, and
	// cols[c] the slot holding column c. sync re-derives it only when
	// membership changed; vmsNext/colsNext are its double buffers.
	pms      []*cluster.PM
	id2row   []int32 // PM ID -> row index, -1 for inactive PMs
	vms      []*cluster.VM
	cols     []int32
	vmsNext  []*cluster.VM
	colsNext []int32

	// Per-PM state, indexed by PM ID. stamps is the engine's own
	// staleness fingerprint (the candidate index keeps a separate one that
	// arrival placements also advance). effH lazily memoizes the
	// hosted-cell efficiency term (NaN = unset). hostCols[id] lists the
	// slots hosted on the PM (maintained by refreshColumn), bestCols[id]
	// the slots whose cached best is the PM (maintained by setBest);
	// hostPos and bestPos are each slot's position in its list, -1 when
	// absent — the reverse indices that let Apply enumerate exactly the
	// columns a move invalidates instead of scanning all N.
	stamps   []pmStamp
	effH     []float64
	hostCols [][]int32
	bestCols [][]int32

	// Per-slot column state. A free slot has a nil slotVM and zero gain,
	// so Best never selects it. Trackers mirror Matrix: curPM/curProb the
	// current placement and its probability, bestPM/bestP/bestGain the
	// best non-host alternative under the dense tie-break (PM IDs, -1 for
	// none).
	slotVM   []*cluster.VM
	slotPos  []int32 // slot -> column in the positional view
	free     []int32
	colShape []*candShape
	shapePos []int32 // slot's position in shapeCols[colShape.id]
	curPM    []int32
	curProb  []float64
	bestPM   []int32
	bestP    []float64
	bestGain []float64
	colSeq   []uint64 // Apply seq that last re-derived the column in full
	hostPos  []int32
	bestPos  []int32

	// nextBest/nextP carry the parallel rescan's results to its serial
	// install phase.
	nextBest []int32
	nextP    []float64

	// shapeCols lists the slots of each demand shape, indexed by the
	// candidate index's shape ID, for targeted join updates.
	shapeCols [][]int32

	// vir memoizes the non-host virtualization penalty per (slot, class
	// index of the candidate index), like the dense kernel's slab: ncls
	// entries per slot, recomputed every pass.
	vir  []float64
	ncls int

	// seq numbers Applies (drawn from the candidate index so engines
	// sharing it never reuse a value); candShape.seq/evFrom/evTo are valid
	// for the current Apply only when they carry this value.
	seq uint64

	// argmaxG/argmaxS are Best's reusable per-span reduction slots
	// (one per fixed slot span when the argmax runs on workers).
	argmaxG []float64
	argmaxS []int32
}

// canonicalDefault reports whether factors are exactly the paper's four in
// canonical order — the only program the candidate index can factor.
func canonicalDefault(factors []Factor) bool {
	if len(factors) != 4 {
		return false
	}
	_, ok0 := factors[0].(ResourceFactor)
	_, ok1 := factors[1].(VirtualizationFactor)
	_, ok2 := factors[2].(ReliabilityFactor)
	_, ok3 := factors[3].(EfficiencyFactor)
	return ok0 && ok1 && ok2 && ok3
}

// NewSparseMatrix builds a stand-alone sparse engine over the data
// center's active PMs and the given VMs. It requires the canonical default
// factor program (canonicalDefault — anything else errors, the
// consolidation entry point falls back to dense before getting here); the
// same VM-set preconditions as NewMatrixWith apply (no duplicates, every
// VM hosted on an active PM). The consolidation path does not call it: it
// keeps the Context's persistent engine (SparseEngine) instead.
func NewSparseMatrix(ctx *Context, factors []Factor, vms []*cluster.VM, opts MatrixOptions) (*SparseMatrix, error) {
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: sparse matrix needs a context with a datacenter")
	}
	if !canonicalDefault(factors) {
		return nil, fmt.Errorf("core: sparse matrix requires the canonical default factors")
	}
	sorted := slices.Clone(vms)
	slices.SortFunc(sorted, func(a, b *cluster.VM) int { return int(a.ID) - int(b.ID) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, fmt.Errorf("core: duplicate VM %d in matrix", sorted[i].ID)
		}
	}
	sm := newSparseMatrix(ctx, factors, opts)
	if err := sm.sync(sorted); err != nil {
		return nil, err
	}
	return sm, nil
}

// SparseEngine returns the Context's persistent consolidation engine for
// the canonical factor program, created on first use and synced to the
// data center's running VMs at ctx.Now. The engine is derived data: a
// restored simulation builds a fresh Context and so a fresh engine, and
// nothing of it is checkpointed.
func (ctx *Context) SparseEngine(factors []Factor, opts MatrixOptions) (*SparseMatrix, error) {
	if !canonicalDefault(factors) {
		return nil, fmt.Errorf("core: sparse matrix requires the canonical default factors")
	}
	if ctx.sparse == nil {
		ctx.sparse = newSparseMatrix(ctx, factors, opts)
	}
	sm := ctx.sparse
	sm.factors, sm.opts = factors, opts
	if err := sm.sync(ctx.DC.Running()); err != nil {
		return nil, err
	}
	return sm, nil
}

// newSparseMatrix allocates an empty engine sized to the fleet.
func newSparseMatrix(ctx *Context, factors []Factor, opts MatrixOptions) *SparseMatrix {
	x := ctx.candidatesWith(opts.Workers)
	// Register every fleet class first: the vir layout is fixed at ncls
	// entries per slot, and membership only registers a class once one of
	// its PMs is feasible for some shape.
	for _, pm := range x.pms {
		x.classFor(pm)
	}
	m := len(x.pms)
	sm := &SparseMatrix{
		ctx:      ctx,
		factors:  factors,
		opts:     opts,
		cand:     x,
		id2row:   make([]int32, m),
		stamps:   make([]pmStamp, m),
		effH:     make([]float64, m),
		hostCols: make([][]int32, m),
		bestCols: make([][]int32, m),
		ncls:     len(x.classes),
	}
	for id := range sm.effH {
		sm.id2row[id] = -1
		sm.effH[id] = math.NaN()
	}
	return sm
}

// sync brings the engine to the current fleet state with vms — ascending
// ID, no duplicates — as its column set: PMs whose stamp changed drop
// their efficiency memo, the row view follows power-state changes, VMs
// join and leave their slots, and every column then re-derives vir and
// its trackers at ctx.Now. A VM that is not hosted on an active PM is an
// error, reported before any column is rescanned.
func (sm *SparseMatrix) sync(vms []*cluster.VM) error {
	sm.ctx.candidatesWith(sm.opts.Workers)
	// The zero stamp matches no active PM, so the first sync derives the
	// row view.
	rowsDirty := false
	for id, pm := range sm.cand.pms {
		st := stampOf(pm)
		if st == sm.stamps[id] {
			continue
		}
		sm.stamps[id] = st
		sm.effH[id] = math.NaN()
		if active := pm.State == cluster.PMOn || pm.State == cluster.PMBooting; active != (sm.id2row[id] >= 0) {
			rowsDirty = true
		}
	}
	if rowsDirty {
		sm.pms = sm.ctx.DC.AppendActivePMs(sm.pms[:0])
		for id := range sm.id2row {
			sm.id2row[id] = -1
		}
		for r, pm := range sm.pms {
			sm.id2row[pm.ID] = int32(r)
		}
	}
	sm.syncColumns(vms)
	for _, vm := range sm.vms {
		if h := vm.Host; h < 0 || int(h) >= len(sm.id2row) || sm.id2row[h] < 0 {
			return fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
	}
	if sm.ctx.Obs != nil {
		for _, s := range sm.cols {
			if sm.colShape[s].nonEmpty > sm.opts.CandidateK {
				sm.ctx.Obs.AddScoped("core.sparse_shape_overflow", 1)
			}
		}
	}
	sm.refreshAll()
	return nil
}

// syncColumns makes vms the column set: a merge walk over the old and new
// ID-ordered lists frees the slots of departed VMs and assigns slots to
// arrivals; members present in both keep theirs.
func (sm *SparseMatrix) syncColumns(vms []*cluster.VM) {
	if slices.Equal(vms, sm.vms) {
		return
	}
	nv, nc := sm.vmsNext[:0], sm.colsNext[:0]
	i := 0
	for _, vm := range vms {
		for i < len(sm.vms) && sm.vms[i].ID < vm.ID {
			sm.leave(sm.cols[i])
			i++
		}
		if i < len(sm.vms) && sm.vms[i].ID == vm.ID {
			if sm.vms[i] == vm {
				nv, nc = append(nv, vm), append(nc, sm.cols[i])
				i++
				continue
			}
			sm.leave(sm.cols[i]) // same ID, different VM object
			i++
		}
		nv, nc = append(nv, vm), append(nc, sm.join(vm))
	}
	for ; i < len(sm.vms); i++ {
		sm.leave(sm.cols[i])
	}
	sm.vmsNext, sm.colsNext = sm.vms[:0], sm.cols[:0]
	sm.vms, sm.cols = nv, nc
	for c, s := range sm.cols {
		sm.slotPos[s] = int32(c)
	}
}

// join assigns vm a slot — a freed one when available — and registers it
// with its demand shape. Its trackers are derived by the pass's rescan.
func (sm *SparseMatrix) join(vm *cluster.VM) int32 {
	var s int32
	if n := len(sm.free); n > 0 {
		s = sm.free[n-1]
		sm.free = sm.free[:n-1]
	} else {
		s = int32(len(sm.slotVM))
		sm.slotVM = append(sm.slotVM, nil)
		sm.slotPos = append(sm.slotPos, -1)
		sm.colShape = append(sm.colShape, nil)
		sm.shapePos = append(sm.shapePos, -1)
		sm.curPM = append(sm.curPM, -1)
		sm.curProb = append(sm.curProb, 0)
		sm.bestPM = append(sm.bestPM, -1)
		sm.bestP = append(sm.bestP, 0)
		sm.bestGain = append(sm.bestGain, 0)
		sm.colSeq = append(sm.colSeq, 0)
		sm.hostPos = append(sm.hostPos, -1)
		sm.bestPos = append(sm.bestPos, -1)
		sm.nextBest = append(sm.nextBest, -1)
		sm.nextP = append(sm.nextP, 0)
		for range sm.ncls {
			sm.vir = append(sm.vir, 0)
		}
	}
	sh := sm.cand.shapeFor(vm.Demand)
	sm.slotVM[s], sm.colShape[s] = vm, sh
	for int(sh.id) >= len(sm.shapeCols) {
		sm.shapeCols = append(sm.shapeCols, nil)
	}
	sm.shapePos[s] = int32(len(sm.shapeCols[sh.id]))
	sm.shapeCols[sh.id] = append(sm.shapeCols[sh.id], s)
	return s
}

// leave frees slot s: it drops out of every reverse index and its shape's
// slot list, and its zero gain keeps Best off it until a join reuses it.
func (sm *SparseMatrix) leave(s int32) {
	if r := sm.curPM[s]; r >= 0 {
		sm.listMove(sm.hostCols, sm.hostPos, s, r, -1)
	}
	if r := sm.bestPM[s]; r >= 0 {
		sm.listMove(sm.bestCols, sm.bestPos, s, r, -1)
	}
	sh := sm.colShape[s]
	sm.listMove(sm.shapeCols, sm.shapePos, s, sh.id, -1)
	sm.slotVM[s], sm.colShape[s] = nil, nil
	sm.curPM[s], sm.bestPM[s] = -1, -1
	sm.curProb[s], sm.bestP[s], sm.bestGain[s] = 0, 0, 0
	sm.free = append(sm.free, s)
}

// fillVir recomputes slot s's per-class non-host virtualization penalty
// at ctx.Now: the same virProbability on the same operands as the dense
// kernel's per-(column, class) slab, so values are bit-identical.
func (sm *SparseMatrix) fillVir(s int32) {
	tre := sm.slotVM[s].RemainingEstimate(sm.ctx.Now)
	v := sm.vir[int(s)*sm.ncls : (int(s)+1)*sm.ncls]
	for ci := range v {
		v[ci] = virProbability(tre, sm.cand.classes[ci].info.overhead)
	}
}

// sparseParallelThreshold is the column count below which auto-sized
// sparse kernels (Workers == 0) stay serial; explicit worker counts
// bypass it. Variable so tests and benchmarks can force both paths.
var sparseParallelThreshold = 4096

// sparseWorkers resolves the worker count for a sparse kernel over n
// units; the caller must ReturnWorkers the borrowed tokens.
func (sm *SparseMatrix) sparseWorkers(n int) (workers, borrowed int) {
	if sm.opts.Workers == 0 && n < sparseParallelThreshold {
		return 1, 0
	}
	return claimWorkers(sm.opts.Workers, n)
}

// refreshAll re-derives every column's vir and trackers. The serial path
// is one refreshColumn per column; above the threshold the scan phase
// shards across workers in column spans — each column's vir, normalizer,
// and best alternative land in that slot's own entries, with the per-PM
// efficiency memo prewarmed so hostProb is read-only — and the shared
// reverse indices are then updated serially in column order. Both paths
// are bit-identical: per-column values come from the same scanColumn code
// on the same operands.
func (sm *SparseMatrix) refreshAll() {
	nc := len(sm.vms)
	workers, borrowed := sm.sparseWorkers(nc)
	defer ReturnWorkers(borrowed)
	if workers <= 1 {
		for _, s := range sm.cols {
			sm.fillVir(s)
			sm.refreshColumn(s)
		}
		return
	}
	for _, pm := range sm.pms {
		sm.hostProb(int32(pm.ID)) // prewarm the effH memo: read-only below
	}
	runSpans(workers, nc, spanChunk(nc, workers), func(_, lo, hi int) {
		for _, s := range sm.cols[lo:hi] {
			sm.fillVir(s)
			host := int32(sm.slotVM[s].Host)
			sm.curProb[s] = sm.hostProb(host)
			sm.nextBest[s], sm.nextP[s] = sm.scanColumn(s, host)
		}
	})
	for _, s := range sm.cols {
		sm.colSeq[s] = sm.seq
		if host := int32(sm.slotVM[s].Host); sm.curPM[s] != host {
			sm.listMove(sm.hostCols, sm.hostPos, s, sm.curPM[s], host)
			sm.curPM[s] = host
		}
		sm.setBest(s, sm.nextBest[s], sm.nextP[s])
	}
}

// Rows and Cols report the engine's dimensions, mirroring Matrix.
func (sm *SparseMatrix) Rows() int { return len(sm.pms) }

// Cols reports the number of VM columns.
func (sm *SparseMatrix) Cols() int { return len(sm.vms) }

// PM returns the physical machine at row r.
func (sm *SparseMatrix) PM(r int) *cluster.PM { return sm.pms[r] }

// VM returns the virtual machine at column c.
func (sm *SparseMatrix) VM(c int) *cluster.VM { return sm.vms[c] }

// rowOf maps a tracked PM ID (or -1 for none) to its row.
func (sm *SparseMatrix) rowOf(id int32) int {
	if id < 0 {
		return -1
	}
	return int(sm.id2row[id])
}

// hostProb returns the hosted-cell probability for PM id, in cellDefault's
// exact form: reliability times the hosted efficiency term, memoized per
// PM.
func (sm *SparseMatrix) hostProb(id int32) float64 {
	pm := sm.cand.pms[id]
	rel := pm.Reliability
	if rel == 0 {
		return 0
	}
	if math.IsNaN(sm.effH[id]) {
		sm.effH[id] = effProbability(sm.ctx.classInfoFor(pm), pm.Utilization())
	}
	return rel * sm.effH[id]
}

// refreshColumn re-derives slot s's trackers from scratch: the current
// placement normalizer and a scan over the shape's score groups. vir must
// be current.
func (sm *SparseMatrix) refreshColumn(s int32) {
	vm := sm.slotVM[s]
	host := int32(vm.Host)
	if host < 0 || int(host) >= len(sm.id2row) || sm.id2row[host] < 0 {
		panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
	}
	sm.colSeq[s] = sm.seq
	if old := sm.curPM[s]; old != host {
		sm.listMove(sm.hostCols, sm.hostPos, s, old, host)
		sm.curPM[s] = host
	}
	sm.curProb[s] = sm.hostProb(host)
	bestPM, bestP := sm.scanColumn(s, host)
	sm.setBest(s, bestPM, bestP)
}

// scanColumn computes slot s's best non-host alternative over the shape's
// score groups given its host and current normalizer: the lowest-ID
// feasible PM maximizing the raw probability when the normalizer is
// positive, or the lowest-ID PM with any positive probability for a +Inf
// rescue column — exactly the dense refreshColumns rules.
func (sm *SparseMatrix) scanColumn(s, hostID int32) (bestPM int32, bestP float64) {
	sh := sm.colShape[s]
	cur := sm.curProb[s]
	vir := sm.vir[int(s)*sm.ncls : (int(s)+1)*sm.ncls]
	bestPM = -1
	for gi := range sh.groups {
		g := &sh.groups[gi]
		m := g.members
		if len(m) == 0 {
			continue
		}
		cand := m[0]
		if cand == hostID {
			if len(m) < 2 {
				continue
			}
			cand = m[1]
		}
		p := vir[g.key.ci]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if cur > 0 {
			if p > bestP || (p == bestP && bestPM >= 0 && cand < bestPM) {
				bestP, bestPM = p, cand
			}
		} else if p > 0 && (bestPM < 0 || cand < bestPM) {
			bestP, bestPM = p, cand
		}
	}
	if bestPM < 0 {
		return -1, 0
	}
	return bestPM, bestP
}

// listMove relocates slot s from lists[from] to lists[to] (either may be
// -1 for absent), swap-removing and keeping pos — each slot's position in
// its current list — consistent.
func (sm *SparseMatrix) listMove(lists [][]int32, pos []int32, s, from, to int32) {
	if from >= 0 {
		l := lists[from]
		i := pos[s]
		last := int32(len(l) - 1)
		moved := l[last]
		l[i] = moved
		pos[moved] = i
		lists[from] = l[:last]
	}
	if to >= 0 {
		pos[s] = int32(len(lists[to]))
		lists[to] = append(lists[to], s)
	} else {
		pos[s] = -1
	}
}

// setBest installs a freshly computed (bestPM, bestP) pair and the derived
// gain for slot s.
func (sm *SparseMatrix) setBest(s, bestPM int32, bestP float64) {
	if old := sm.bestPM[s]; old != bestPM {
		sm.listMove(sm.bestCols, sm.bestPos, s, old, bestPM)
		sm.bestPM[s] = bestPM
	}
	sm.bestP[s] = bestP
	switch {
	case bestPM < 0:
		sm.bestGain[s] = 0
	case sm.curProb[s] > 0:
		sm.bestGain[s] = bestP / sm.curProb[s]
	default:
		sm.bestGain[s] = math.Inf(1)
	}
}

// CurProb returns column c's normalizer, mirroring Matrix.CurProb.
func (sm *SparseMatrix) CurProb(c int) float64 { return sm.curProb[sm.cols[c]] }

// BestAlt returns the tracked best non-host row of column c and its gain,
// mirroring Matrix.BestAlt.
func (sm *SparseMatrix) BestAlt(c int) (row int, gain float64) {
	s := sm.cols[c]
	return sm.rowOf(sm.bestPM[s]), sm.bestGain[s]
}

// Best returns the globally maximal normalized gain and its (row, col),
// with Matrix.Best's exact contract and tie-breaks.
func (sm *SparseMatrix) Best() (r, c int, gain float64, ok bool) {
	pm, s, gain, ok := sm.best()
	if !ok {
		return -1, -1, 0, false
	}
	return sm.rowOf(pm), int(sm.slotPos[s]), gain, true
}

// best is Best in the engine's own keys: the target PM ID and the slot.
// Unlike the dense engine there is no gain heap to maintain: Best runs
// once per consolidation round, so a sequential argmax over the gain slice
// (~N contiguous loads) is cheaper than paying O(log N) heap repairs for
// each of the hundreds of columns an Apply re-derives. Ties go to the
// lower VM ID, which is the dense heap's (gain desc, column asc) order.
//
// With workers, the argmax splits into fixed contiguous slot spans with
// one result entry per span (indexed by span, not by worker, so scheduling
// cannot reorder results) merged under the same order, so the answer is
// bit-identical to the serial scan at any worker count.
func (sm *SparseMatrix) best() (pm, s int32, gain float64, ok bool) {
	n := len(sm.bestGain)
	bs, bg := int32(-1), 0.0
	workers, borrowed := sm.sparseWorkers(n)
	if workers > 1 {
		span := (n + workers - 1) / workers
		nspans := (n + span - 1) / span
		if cap(sm.argmaxG) < nspans {
			sm.argmaxG = make([]float64, nspans)
			sm.argmaxS = make([]int32, nspans)
		}
		spanG, spanS := sm.argmaxG[:nspans], sm.argmaxS[:nspans]
		runSpans(workers, n, span, func(_, lo, hi int) {
			g, s := sm.argmax(lo, hi)
			spanG[lo/span], spanS[lo/span] = g, s
		})
		for i := range spanG {
			if g, s := spanG[i], spanS[i]; g > bg || (g == bg && bs >= 0 && s >= 0 && sm.slotVM[s].ID < sm.slotVM[bs].ID) {
				bg, bs = g, s
			}
		}
	} else {
		bg, bs = sm.argmax(0, n)
	}
	ReturnWorkers(borrowed)
	if bs < 0 || sm.bestPM[bs] < 0 {
		return -1, -1, 0, false
	}
	return sm.bestPM[bs], bs, bg, true
}

// argmax returns the slot in [lo, hi) with the largest positive gain, ties
// to the lower VM ID, or -1 when none is positive.
func (sm *SparseMatrix) argmax(lo, hi int) (float64, int32) {
	bs, bg := int32(-1), 0.0
	for s := lo; s < hi; s++ {
		if g := sm.bestGain[s]; g > bg || (g == bg && bs >= 0 && sm.slotVM[s].ID < sm.slotVM[bs].ID) {
			bg, bs = g, int32(s)
		}
	}
	return bg, bs
}

// Apply performs the move for column c to row r and incrementally repairs
// the trackers; see apply.
func (sm *SparseMatrix) Apply(r, c int) error {
	return sm.apply(int32(sm.pms[r].ID), sm.cols[c])
}

// apply moves slot s's VM to PM toID. The fleet is mutated exactly as
// Matrix.Apply mutates it; the repair re-derives only the two endpoint
// PMs' group memberships and the columns those membership events can
// actually affect:
//
//   - the moved column and every column hosted on an endpoint re-derive in
//     full (their normalizer changed);
//   - a column whose cached best is an endpoint re-derives only when that
//     endpoint actually changed groups in the column's shape (otherwise
//     its probability is untouched);
//   - a join event whose PM became one of its new group's two lowest
//     members is tested against each remaining column of the shape in
//     O(1) — the only way an untouched column's best can improve, since a
//     pre-Apply-exact tracker already dominates every standing group.
func (sm *SparseMatrix) apply(toID, s int32) error {
	vm := sm.slotVM[s]
	x := sm.cand
	rF, rT := sm.curPM[s], toID
	from, to := x.pms[rF], x.pms[rT]
	if err := from.Evict(vm); err != nil {
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	if err := to.Host(vm); err != nil {
		if rbErr := from.Host(vm); rbErr != nil {
			panic(fmt.Sprintf("core: rollback failed after host error (%v): %v", err, rbErr))
		}
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	vm.Migrations++

	x.seq++
	sm.seq = x.seq
	x.events = x.events[:0]
	x.syncPM(rF)
	x.syncPM(rT)
	sm.stamps[rF], sm.stamps[rT] = x.stamps[rF], x.stamps[rT]
	sm.effH[rF] = math.NaN()
	sm.effH[rT] = math.NaN()

	for i := range x.events {
		ev := &x.events[i]
		sh := ev.shape
		if sh.seq != sm.seq {
			sh.seq = sm.seq
			sh.evFrom, sh.evTo = false, false
		}
		if ev.pm == rF {
			sh.evFrom = true
		} else {
			sh.evTo = true
		}
	}

	// Targeted repair via the reverse indices. Each loop tolerates the
	// swap-removals its own refreshes perform on the list it is walking:
	// when the element at position i changes, the position is re-tested;
	// colSeq bounds every column to one re-derivation per Apply, so both
	// loops terminate. The moved column itself sits in hostCols[rF] until
	// its refresh re-homes it.
	for _, r2 := range [2]int32{rF, rT} {
		for i := 0; i < len(sm.hostCols[r2]); {
			s2 := sm.hostCols[r2][i]
			if sm.colSeq[s2] != sm.seq {
				sm.refreshColumn(s2)
				if i < len(sm.hostCols[r2]) && sm.hostCols[r2][i] != s2 {
					continue
				}
			}
			i++
		}
	}
	for _, e := range [2]struct {
		pm   int32
		from bool
	}{{rF, true}, {rT, false}} {
		for i := 0; i < len(sm.bestCols[e.pm]); {
			s2 := sm.bestCols[e.pm][i]
			sh := sm.colShape[s2]
			if sm.colSeq[s2] != sm.seq && sh.seq == sm.seq &&
				((e.from && sh.evFrom) || (!e.from && sh.evTo)) {
				sm.refreshColumn(s2)
				if i < len(sm.bestCols[e.pm]) && sm.bestCols[e.pm][i] != s2 {
					continue
				}
			}
			i++
		}
	}

	for i := range x.events {
		ev := &x.events[i]
		if ev.new < 0 {
			continue
		}
		g := &ev.shape.groups[ev.new]
		// Only a joiner that landed among its group's two lowest members
		// can become any column's candidate (the second-lowest matters
		// when the lowest is the column's host).
		if g.members[0] != ev.pm && (len(g.members) < 2 || g.members[1] != ev.pm) {
			continue
		}
		// The index may track shapes no column here uses (interned by
		// arrival placements); their events cannot affect this engine.
		if int(ev.shape.id) < len(sm.shapeCols) {
			sm.joinUpdate(sm.shapeCols[ev.shape.id], g)
		}
	}

	if sm.opts.SelfAudit {
		if err := sm.verifyDense(); err != nil {
			return fmt.Errorf("core: sparse self-audit after moving VM %d to PM %d: %w", vm.ID, to.ID, err)
		}
	}
	return nil
}

// joinUpdate tests one group — whose candidate member just changed — as an
// improved best against every listed slot of its shape. Columns already
// exactly re-derived this Apply are unaffected: for them the group's value
// is already dominated by the tracker, so the strict-improvement test is a
// no-op.
func (sm *SparseMatrix) joinUpdate(slots []int32, g *candGroup) {
	for _, s := range slots {
		// A column re-derived this Apply is exact: scanColumn already
		// covered every standing group, so strict improvement is
		// impossible and the test below would be a guaranteed no-op.
		if sm.colSeq[s] == sm.seq {
			continue
		}
		cand := g.members[0]
		if cand == sm.curPM[s] {
			if len(g.members) < 2 {
				continue
			}
			cand = g.members[1]
		}
		p := sm.vir[int(s)*sm.ncls+int(g.key.ci)]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if sm.curProb[s] > 0 {
			if p > sm.bestP[s] ||
				(p == sm.bestP[s] && p > 0 && sm.bestPM[s] >= 0 && cand < sm.bestPM[s]) {
				sm.setBest(s, cand, p)
			}
		} else if p > 0 && (sm.bestPM[s] < 0 || cand < sm.bestPM[s]) {
			sm.setBest(s, cand, p)
		}
	}
}

// SelfCheck re-derives every column tracker from a fresh group scan and
// validates the slot bookkeeping, the reverse indices and the candidate
// index's internal structure, reporting the first divergence — the
// incremental Apply repair and the per-pass deltas must never drift from a
// from-scratch derivation.
func (sm *SparseMatrix) SelfCheck() error {
	for c, vm := range sm.vms {
		s := sm.cols[c]
		if sm.slotVM[s] != vm || sm.slotPos[s] != int32(c) {
			return fmt.Errorf("core: column %d (VM %d) slot %d holds another column", c, vm.ID, s)
		}
		if c > 0 && sm.vms[c-1].ID >= vm.ID {
			return fmt.Errorf("core: columns %d and %d out of VM ID order", c-1, c)
		}
		h := vm.Host
		if h < 0 || int(h) >= len(sm.id2row) || sm.id2row[h] < 0 {
			return fmt.Errorf("core: column %d (VM %d) hosted on PM %d outside the matrix", c, vm.ID, vm.Host)
		}
		if sm.curPM[s] != int32(h) {
			return fmt.Errorf("core: column %d curPM %d, want %d", c, sm.curPM[s], h)
		}
		pm := sm.cand.pms[h]
		want := 0.0
		if pm.Reliability != 0 {
			want = pm.Reliability * effProbability(sm.ctx.classInfoFor(pm), pm.Utilization())
		}
		if sm.curProb[s] != want {
			return fmt.Errorf("core: column %d curProb %g, want %g", c, sm.curProb[s], want)
		}
		bestPM, bestP := sm.scanColumn(s, int32(h))
		gain := 0.0
		switch {
		case bestPM < 0:
		case sm.curProb[s] > 0:
			gain = bestP / sm.curProb[s]
		default:
			gain = math.Inf(1)
		}
		if sm.bestPM[s] != bestPM || sm.bestGain[s] != gain {
			return fmt.Errorf("core: column %d tracker (PM %d, gain %g) != rescan (PM %d, gain %g)",
				c, sm.bestPM[s], sm.bestGain[s], bestPM, gain)
		}
		if bestPM >= 0 && sm.bestP[s] != bestP {
			return fmt.Errorf("core: column %d bestP %g != rescan %g", c, sm.bestP[s], bestP)
		}
		if i := sm.hostPos[s]; i < 0 || int(i) >= len(sm.hostCols[h]) || sm.hostCols[h][i] != s {
			return fmt.Errorf("core: column %d missing from hostCols[%d]", c, h)
		}
		if r := sm.bestPM[s]; r >= 0 {
			if i := sm.bestPos[s]; i < 0 || int(i) >= len(sm.bestCols[r]) || sm.bestCols[r][i] != s {
				return fmt.Errorf("core: column %d missing from bestCols[%d]", c, r)
			}
		} else if sm.bestPos[s] != -1 {
			return fmt.Errorf("core: column %d has no best PM but bestPos %d", c, sm.bestPos[s])
		}
		sh := sm.colShape[s]
		if i := sm.shapePos[s]; i < 0 || int(i) >= len(sm.shapeCols[sh.id]) || sm.shapeCols[sh.id][i] != s {
			return fmt.Errorf("core: column %d missing from its shape's slot list", c)
		}
	}
	nHost, nBest, nShape, nBestWant := 0, 0, 0, 0
	for id := range sm.hostCols {
		nHost += len(sm.hostCols[id])
		nBest += len(sm.bestCols[id])
	}
	for _, l := range sm.shapeCols {
		nShape += len(l)
	}
	for _, s := range sm.cols {
		if sm.bestPM[s] >= 0 {
			nBestWant++
		}
	}
	if nHost != len(sm.vms) || nShape != len(sm.vms) || nBest != nBestWant {
		return fmt.Errorf("core: reverse index sizes (host %d, shape %d, best %d) != (%d, %d, %d)",
			nHost, nShape, nBest, len(sm.vms), len(sm.vms), nBestWant)
	}
	if len(sm.free)+len(sm.vms) != len(sm.slotVM) {
		return fmt.Errorf("core: %d free + %d live slots != %d slots", len(sm.free), len(sm.vms), len(sm.slotVM))
	}
	for _, s := range sm.free {
		if sm.slotVM[s] != nil || sm.bestGain[s] != 0 {
			return fmt.Errorf("core: free slot %d still holds a column", s)
		}
	}
	return sm.checkIndex()
}

// checkIndex validates the candidate index's structural invariants for
// every shape the matrix uses: sorted member lists, a consistent groupOf
// inverse, and membership signatures that match a fresh evaluation.
func (sm *SparseMatrix) checkIndex() error {
	x := sm.cand
	for si, sh := range x.shapeList {
		nonEmpty := 0
		for gi := range sh.groups {
			g := &sh.groups[gi]
			if len(g.members) > 0 {
				nonEmpty++
			}
			for i, id := range g.members {
				if i > 0 && g.members[i-1] >= id {
					return fmt.Errorf("core: shape %d group %d members out of order", si, gi)
				}
				if sh.groupOf[id] != int32(gi) {
					return fmt.Errorf("core: shape %d PM %d groupOf %d != group %d", si, id, sh.groupOf[id], gi)
				}
			}
		}
		if nonEmpty != sh.nonEmpty {
			return fmt.Errorf("core: shape %d nonEmpty %d, counted %d", si, sh.nonEmpty, nonEmpty)
		}
		for id, pm := range x.pms {
			key, _, _, ok := x.membership(pm, sh.demand)
			gi := sh.groupOf[id]
			if !ok {
				if gi >= 0 {
					return fmt.Errorf("core: shape %d PM %d grouped but excluded on re-evaluation", si, id)
				}
				continue
			}
			if gi < 0 {
				return fmt.Errorf("core: shape %d PM %d ungrouped but eligible (key %+v)", si, id, key)
			}
			if sh.groups[gi].key != key {
				return fmt.Errorf("core: shape %d PM %d in group %+v, want %+v", si, id, sh.groups[gi].key, key)
			}
		}
	}
	return nil
}

// DiffDense compares the sparse trackers against a dense Matrix built over
// the same VMs: dimensions, identities, normalizers, best alternatives,
// and the Best extraction must all be bit-identical. It is the oracle
// check behind the auditor's sparse differential and the fuzz harness.
func (sm *SparseMatrix) DiffDense(o *Matrix) error {
	if sm.Rows() != o.Rows() || sm.Cols() != o.Cols() {
		return fmt.Errorf("core: sparse %dx%d != dense %dx%d", sm.Rows(), sm.Cols(), o.Rows(), o.Cols())
	}
	for r := range sm.pms {
		if sm.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, sm.pms[r].ID, o.pms[r].ID)
		}
	}
	for c, vm := range sm.vms {
		if vm.ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, vm.ID, o.vms[c].ID)
		}
	}
	for c, s := range sm.cols {
		if cur := sm.rowOf(sm.curPM[s]); cur != o.curRow[c] || sm.curProb[s] != o.curProb[c] {
			return fmt.Errorf("core: column %d normalizer (row %d, p %g) vs dense (row %d, p %g)",
				c, cur, sm.curProb[s], o.curRow[c], o.curProb[c])
		}
		if best := sm.rowOf(sm.bestPM[s]); best != o.bestRow[c] || sm.bestGain[s] != o.bestGain[c] {
			return fmt.Errorf("core: column %d best (row %d, gain %g) vs dense (row %d, gain %g)",
				c, best, sm.bestGain[s], o.bestRow[c], o.bestGain[c])
		}
		if sm.bestPM[s] >= 0 && sm.bestP[s] != o.bestP[c] {
			return fmt.Errorf("core: column %d bestP %g vs dense %g", c, sm.bestP[s], o.bestP[c])
		}
	}
	mr, mc, mg, mok := sm.Best()
	or, oc, og, ook := o.Best()
	if mok != ook || (mok && (mr != or || mc != oc || mg != og)) {
		return fmt.Errorf("core: Best (%d, %d, %g, %t) vs dense (%d, %d, %g, %t)", mr, mc, mg, mok, or, oc, og, ook)
	}
	return nil
}

// DiffSparse compares two sparse engines tracker-for-tracker: dimensions,
// row/column identities, normalizers, best alternatives, and the Best
// extraction must all be bit-identical. It is the equivalence gate behind
// the persistent-engine and parallel-kernel tests and cmd/benchreport's
// 100k-PM scale point, where a dense reference matrix (DiffDense) would
// not fit in memory.
func (sm *SparseMatrix) DiffSparse(o *SparseMatrix) error {
	if sm.Rows() != o.Rows() || sm.Cols() != o.Cols() {
		return fmt.Errorf("core: sparse %dx%d != sparse %dx%d", sm.Rows(), sm.Cols(), o.Rows(), o.Cols())
	}
	for r := range sm.pms {
		if sm.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, sm.pms[r].ID, o.pms[r].ID)
		}
	}
	for c, vm := range sm.vms {
		if vm.ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, vm.ID, o.vms[c].ID)
		}
		s, t := sm.cols[c], o.cols[c]
		if sm.curPM[s] != o.curPM[t] || sm.curProb[s] != o.curProb[t] {
			return fmt.Errorf("core: column %d normalizer (PM %d, p %g) vs (PM %d, p %g)",
				c, sm.curPM[s], sm.curProb[s], o.curPM[t], o.curProb[t])
		}
		if sm.bestPM[s] != o.bestPM[t] || sm.bestGain[s] != o.bestGain[t] {
			return fmt.Errorf("core: column %d best (PM %d, gain %g) vs (PM %d, gain %g)",
				c, sm.bestPM[s], sm.bestGain[s], o.bestPM[t], o.bestGain[t])
		}
		if sm.bestPM[s] >= 0 && sm.bestP[s] != o.bestP[t] {
			return fmt.Errorf("core: column %d bestP %g vs %g", c, sm.bestP[s], o.bestP[t])
		}
	}
	mr, mc, mg, mok := sm.Best()
	or, oc, og, ook := o.Best()
	if mok != ook || (mok && (mr != or || mc != oc || mg != og)) {
		return fmt.Errorf("core: Best (%d, %d, %g, %t) vs (%d, %d, %g, %t)", mr, mc, mg, mok, or, oc, og, ook)
	}
	return nil
}

// verifyDense checks the live sparse state against a cold dense build over
// the same VM set (SelfAudit mode), plus the from-scratch self check.
func (sm *SparseMatrix) verifyDense() error {
	opts := sm.opts
	opts.SelfAudit = false
	opts.CandidateK = 0
	fresh, err := NewMatrixWith(sm.ctx, sm.factors, sm.vms, opts)
	if err != nil {
		return fmt.Errorf("core: dense rebuild failed: %w", err)
	}
	defer fresh.Release()
	if err := sm.SelfCheck(); err != nil {
		return err
	}
	return sm.DiffDense(fresh)
}

// ColumnShortlist returns column c's candidate shortlist: every feasible
// non-host PM with a positive probability, ordered (probability desc, PM
// ID asc) and truncated to at most k entries. The head, when present, is
// exactly the tracked best alternative; the property tests compare the
// list against a dense column ranking.
func (sm *SparseMatrix) ColumnShortlist(c, k int) []Placement {
	return sm.shortlist(sm.cols[c], k)
}

func (sm *SparseMatrix) shortlist(s int32, k int) []Placement {
	sh := sm.colShape[s]
	hostID := sm.curPM[s]
	vir := sm.vir[int(s)*sm.ncls : (int(s)+1)*sm.ncls]
	var out []Placement
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if len(g.members) == 0 {
			continue
		}
		p := vir[g.key.ci]
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if p <= 0 {
			continue
		}
		for _, id := range g.members {
			if id == hostID {
				continue
			}
			out = append(out, Placement{PM: sm.cand.pms[id], Probability: p})
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Probability > b.Probability ||
				(a.Probability == b.Probability && a.PM.ID < b.PM.ID) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// columnAlternatives is the sparse twin of Matrix.ColumnAlternatives:
// the slot's shortlist with each probability normalized by the current
// placement, collapsing to the single tracked rescue PM with +Inf gain
// when the current placement has probability 0. The decision hook in
// consolidateSparse uses it so recorded alternatives carry the same
// gain scale as the dense engine.
func (sm *SparseMatrix) columnAlternatives(s int32, k int) []Placement {
	cur := sm.curProb[s]
	if cur <= 0 {
		if b := sm.bestPM[s]; b >= 0 {
			return []Placement{{PM: sm.cand.pms[b], Probability: math.Inf(1)}}
		}
		return nil
	}
	out := sm.shortlist(s, k)
	for i := range out {
		out[i].Probability /= cur
	}
	return out
}

// BestPlacementWith is BestPlacement with explicit matrix options: with
// CandidateK > 0 and the canonical factor program the argmax comes from
// the candidate index (bit-identical to the dense scan by construction);
// anything else falls through to the dense path.
func BestPlacementWith(ctx *Context, factors []Factor, vm *cluster.VM, opts MatrixOptions) *cluster.PM {
	if opts.CandidateK > 0 && canonicalDefault(factors) {
		defer ctx.Obs.Phase("arrival_place").Time()()
		return ctx.candidatesWith(opts.Workers).bestArrival(vm, opts.CandidateK)
	}
	return BestPlacement(ctx, factors, vm)
}

// ArrivalShortlist returns the sparse top-k shortlist for placing vm —
// RankPlacements' exact ordering truncated to k — and ok = true when the
// candidate index covers the factor program. Callers outside the tests
// want BestPlacementWith; this exists so the shortlist-containment
// property is checkable from outside the package.
func ArrivalShortlist(ctx *Context, factors []Factor, vm *cluster.VM, k int) ([]Placement, bool) {
	if !canonicalDefault(factors) {
		return nil, false
	}
	return ctx.candidates().shortlist(nil, vm, k), true
}

// consolidateSparse is ConsolidateWith's candidate-set engine: the same
// Algorithm 1 loop over the Context's persistent SparseMatrix. The caller
// has already verified the canonical factor program. The kernel_build span
// covers the per-pass sync and rescan.
func consolidateSparse(ctx *Context, factors []Factor, params Params, opts MatrixOptions) ([]Move, error) {
	stop := ctx.Obs.Phase("kernel_build").Time()
	sm, err := ctx.SparseEngine(factors, opts)
	stop()
	if err != nil {
		return nil, err
	}
	stop = ctx.Obs.Phase("algo1_rounds").Time()
	var moves []Move
	for round := 1; round <= params.MIGRound; round++ {
		to, s, gain, ok := sm.best()
		if !ok || gain <= params.MIGThreshold || math.IsNaN(gain) {
			break
		}
		vm := sm.slotVM[s]
		from := vm.Host
		if opts.DecisionHook != nil {
			opts.DecisionHook(round,
				Move{VM: vm.ID, From: from, To: cluster.PMID(to), Gain: gain, Round: round},
				sm.columnAlternatives(s, topK))
		}
		if err := sm.apply(to, s); err != nil {
			stop()
			return moves, err
		}
		moves = append(moves, Move{
			VM: vm.ID, From: from, To: vm.Host, Gain: gain, Round: round,
		})
	}
	stop()
	ctx.Obs.Add("core.consolidate_passes", 1)
	if len(moves) > 0 {
		ctx.Obs.Add("core.consolidate_moves", int64(len(moves)))
	}
	return moves, nil
}
