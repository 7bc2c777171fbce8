package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// This file implements the sparse candidate index behind
// MatrixOptions.CandidateK: a headroom/class grouping of the fleet that
// lets the arrival argmax and the consolidation column trackers score a
// handful of score-groups instead of all M PMs (DESIGN.md §13).
//
// The key observation is that for the canonical factor program
// (res, vir, rel, eff) the non-host cell value
//
//	p = ((p_vir * p_rel) * p_eff)
//
// depends on the PM only through (class, reliability bits, prospective
// utilization level for the column's demand shape) plus the feasibility
// predicate. Every feasible PM sharing that triple has a bit-identical p
// for every column of the shape, so the fleet collapses into score groups:
// per demand shape, a map from (class, level, reliability) to the sorted
// ID list of its member PMs. The dense argmax with its ID-order tie-break
// becomes "max p over groups, tie to the lowest member ID" — the same
// answer, computed over G groups instead of M rows.
//
// The index is owned by a Context (not safe for concurrent use, like the
// rest of the Context's scratch) and is maintained incrementally: each PM
// carries an occupancy version counter (cluster.PM.Version), and a sync
// pass re-derives group membership only for PMs whose (version, state,
// reliability) stamp changed since the last look. A full sync costs three
// word-compares per PM; re-deriving one PM costs O(shapes) feasibility and
// level evaluations.
//
// CandidateK is a sizing contract, not a structural cap: when a shape's
// population needs more than K non-empty groups the scan simply covers
// them all — exactness is never traded away. Overflow is counted on
// ctx.Obs ("core.sparse_shape_overflow") so a misconfigured K is visible.

// candIndex is the fleet-wide score-group index. One per Context, built
// lazily by Context.candidates.
type candIndex struct {
	ctx *Context

	// pms is the full fleet in ID order; PM IDs are dense (0..M-1 by
	// construction in cluster.New), so per-PM caches are plain slices.
	pms []*cluster.PM

	// stamps holds the last-seen (version, reliability bits, state) per
	// PM; a mismatch means the PM's groups must be re-derived.
	stamps []pmStamp

	// classIdx/classes give each PM class a compact index plus the
	// precomputed efficiency value per level.
	classIdx map[*cluster.PMClass]int32
	classes  []*candClass

	// shapes interns demand vectors by exact bit pattern, like the dense
	// kernel, so memoized group values are bit-identical to per-cell
	// evaluation.
	shapes    map[string]*candShape
	shapeList []*candShape
	key       []byte

	// events collects membership changes produced by syncPM for the
	// consolidation engine's targeted tracker updates. Bulk syncs discard
	// it.
	events []candEvent

	// workers is the sticky MatrixOptions.Workers request the bulk kernels
	// (sync's staleness sweep, shapeFor's first-seen fleet pass) resolve
	// against; candidatesWith updates it. Zero auto-sizes.
	workers int

	// dirty holds sync's per-span stale-PM lists (parallel path scratch).
	dirty [][]int32

	// seq numbers SparseMatrix Applies across every engine sharing the
	// index, so a shape's per-Apply scratch (candShape.seq) can never be
	// mistaken for another engine's.
	seq uint64
}

// pmStamp is the staleness fingerprint of one PM. Version covers every
// occupancy mutation; State and Reliability are plain fields the simulator
// writes directly, so they are compared alongside.
type pmStamp struct {
	ver   uint64
	rel   uint64 // math.Float64bits(pm.Reliability)
	state cluster.PMState
}

// candClass is one PM class with the per-level efficiency products.
type candClass struct {
	class *cluster.PMClass
	info  *classInfo

	// effVal[l] = float64(l) / float64(W_j) * eff_j for l in 1..W_j —
	// exactly effProbability's return expression, so group values match
	// the dense kernel bit-for-bit. Nil when W_j == 0 (the class scores 0
	// everywhere and never joins a group).
	effVal []float64
}

// candKey identifies a score group within a shape.
type candKey struct {
	ci    int32  // compact class index
	level int32  // prospective utilization level for the shape's demand
	rel   uint64 // reliability bits
}

// candGroup is one score group: the PMs sharing a bit-identical non-host
// probability for every column of the shape.
type candGroup struct {
	key    candKey
	rel    float64 // the shared reliability value
	effVal float64 // the shared p_eff value
	// members holds the group's PM IDs in ascending order; the head is
	// the dense tie-break winner (rows are ID-sorted), with the column's
	// host — present in at most one group — skipped to its successor.
	members []int32
}

// candShape is the per-demand-shape grouping.
type candShape struct {
	id       int32 // position in candIndex.shapeList
	demand   vector.V
	groups   []candGroup
	byKey    map[candKey]int32
	groupOf  []int32 // per PM ID: group index, or -1 when excluded
	nonEmpty int     // count of non-empty groups (the K contract)

	// seq/evFrom/evTo are per-Apply scratch for the sparse matrix: which
	// migration endpoint produced a membership event in this shape during
	// the Apply numbered seq (sparse.go).
	seq    uint64
	evFrom bool
	evTo   bool
}

// candEvent is one membership change: pm moved from group old to group new
// (-1 = excluded) within shape.
type candEvent struct {
	shape *candShape
	pm    int32
	old   int32
	new   int32
}

// candidates returns the Context's candidate index, synced to the current
// fleet state under the most recently requested worker count.
func (ctx *Context) candidates() *candIndex {
	if ctx.cand == nil {
		ctx.cand = newCandIndex(ctx)
	}
	ctx.cand.sync()
	return ctx.cand
}

// candidatesWith is candidates with an explicit worker request
// (MatrixOptions.Workers) applied to the index's bulk kernels before the
// sync pass runs. The setting is sticky: later plain candidates() calls
// reuse it, matching how one options value drives a whole consolidation
// pass.
func (ctx *Context) candidatesWith(workers int) *candIndex {
	if ctx.cand == nil {
		ctx.cand = newCandIndex(ctx)
	}
	ctx.cand.workers = workers
	ctx.cand.sync()
	return ctx.cand
}

func newCandIndex(ctx *Context) *candIndex {
	pms := ctx.DC.PMs()
	for i, pm := range pms {
		if int(pm.ID) != i {
			panic(fmt.Sprintf("core: candidate index needs dense PM IDs (slot %d holds PM %d)", i, pm.ID))
		}
	}
	return &candIndex{
		ctx:      ctx,
		pms:      pms,
		stamps:   make([]pmStamp, len(pms)),
		classIdx: make(map[*cluster.PMClass]int32, 4),
		shapes:   make(map[string]*candShape, 16),
	}
}

func stampOf(pm *cluster.PM) pmStamp {
	return pmStamp{ver: pm.Version(), rel: math.Float64bits(pm.Reliability), state: pm.State}
}

// sync re-derives group membership for every PM whose stamp changed. The
// events produced by a bulk sync have no consumer and are dropped.
//
// The staleness sweep — three word-compares per PM, the whole fleet every
// sync — shards across workers in fixed contiguous PM spans, each span
// collecting its stale IDs into its own slot; re-derivation then applies
// serially in span order, which is ascending PM ID, exactly the serial
// sweep's order. Group state mutates only in the serial phase, so worker
// count cannot change the index.
func (x *candIndex) sync() {
	n := len(x.pms)
	workers, borrowed := x.syncWorkers(n)
	defer ReturnWorkers(borrowed)
	if workers <= 1 {
		for id, pm := range x.pms {
			s := stampOf(pm)
			if s == x.stamps[id] {
				continue
			}
			x.stamps[id] = s
			x.resyncPM(int32(id))
		}
		x.events = x.events[:0]
		return
	}
	span := (n + workers - 1) / workers
	nspans := (n + span - 1) / span
	for len(x.dirty) < nspans {
		x.dirty = append(x.dirty, nil)
	}
	runSpans(workers, n, span, func(_, lo, hi int) {
		buf := x.dirty[lo/span][:0]
		for id := lo; id < hi; id++ {
			if stampOf(x.pms[id]) != x.stamps[id] {
				buf = append(buf, int32(id))
			}
		}
		x.dirty[lo/span] = buf
	})
	for si := 0; si < nspans; si++ {
		for _, id := range x.dirty[si] {
			x.stamps[id] = stampOf(x.pms[id])
			x.resyncPM(id)
		}
	}
	x.events = x.events[:0]
}

// syncWorkers resolves the index's worker count for a fleet-sized loop;
// the caller must ReturnWorkers the borrowed tokens. Auto requests share
// the sparse engine's serial-below threshold.
func (x *candIndex) syncWorkers(n int) (workers, borrowed int) {
	if x.workers == 0 && n < sparseParallelThreshold {
		return 1, 0
	}
	return claimWorkers(x.workers, n)
}

// syncPM refreshes one PM's stamp and membership, appending any membership
// changes to x.events (the consolidation Apply path reads them).
func (x *candIndex) syncPM(id int32) {
	x.stamps[id] = stampOf(x.pms[id])
	x.resyncPM(id)
}

// resyncPM recomputes pm's group in every tracked shape, moving it between
// member lists where the (feasibility, class, level, reliability) signature
// changed.
func (x *candIndex) resyncPM(id int32) {
	pm := x.pms[id]
	for _, sh := range x.shapeList {
		key, rel, ev, ok := x.membership(pm, sh.demand)
		ng := int32(-1)
		if ok {
			ng = sh.groupIdx(key, rel, ev)
		}
		og := sh.groupOf[id]
		if og == ng {
			continue
		}
		if og >= 0 {
			sh.removeMember(og, id)
		}
		if ng >= 0 {
			sh.addMember(ng, id)
		}
		sh.groupOf[id] = ng
		x.events = append(x.events, candEvent{shape: sh, pm: id, old: og, new: ng})
	}
}

// membership computes pm's score-group signature for a demand shape, or
// ok = false when every column of the shape scores 0 on pm (infeasible,
// zero reliability, or a zero efficiency term) and the PM stays out of the
// shape's groups entirely.
func (x *candIndex) membership(pm *cluster.PM, demand vector.V) (key candKey, rel, effVal float64, ok bool) {
	if !pm.CanHost(demand) {
		return candKey{}, 0, 0, false
	}
	rel = pm.Reliability
	if rel == 0 {
		return candKey{}, 0, 0, false
	}
	ci := x.classFor(pm)
	cc := x.classes[ci]
	if cc.info.wj == 0 {
		return candKey{}, 0, 0, false
	}
	level := levelOf(cc.info, prospectiveUtilization(pm, demand))
	effVal = cc.effVal[level]
	if effVal == 0 {
		return candKey{}, 0, 0, false
	}
	return candKey{ci: ci, level: int32(level), rel: math.Float64bits(rel)}, rel, effVal, true
}

func (x *candIndex) classFor(pm *cluster.PM) int32 {
	if ci, ok := x.classIdx[pm.Class]; ok {
		return ci
	}
	info := x.ctx.classInfoFor(pm)
	cc := &candClass{class: pm.Class, info: info}
	if info.wj > 0 {
		cc.effVal = make([]float64, info.wj+1)
		for l := 1; l <= info.wj; l++ {
			cc.effVal[l] = float64(l) / float64(info.wj) * info.eff
		}
	}
	ci := int32(len(x.classes))
	x.classes = append(x.classes, cc)
	x.classIdx[pm.Class] = ci
	return ci
}

// shapeFor interns a demand vector and returns its grouping, building the
// membership of a first-seen shape from the live fleet in one pass.
func (x *candIndex) shapeFor(demand vector.V) *candShape {
	key := x.key[:0]
	for _, v := range demand {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	x.key = key
	if sh, ok := x.shapes[string(key)]; ok {
		return sh
	}
	sh := &candShape{
		id:      int32(len(x.shapeList)),
		demand:  demand.Clone(),
		byKey:   make(map[candKey]int32, 16),
		groupOf: make([]int32, len(x.pms)),
	}
	for i := range sh.groupOf {
		sh.groupOf[i] = -1
	}
	// The first-seen fleet pass is the index's O(M) hotspot: membership is
	// a pure signature evaluation per PM once the class table is warm, so
	// it shards across workers into per-PM result slots; groups are then
	// built serially in PM-ID order, so group numbering and member order
	// match the serial pass exactly.
	n := len(x.pms)
	if workers, borrowed := x.syncWorkers(n); workers > 1 {
		for _, pm := range x.pms {
			x.classFor(pm) // prewarm the class table: read-only below
		}
		keys := make([]candKey, n)
		rels := make([]float64, n)
		evs := make([]float64, n)
		oks := make([]bool, n)
		runSpans(workers, n, spanChunk(n, workers), func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				keys[id], rels[id], evs[id], oks[id] = x.membership(x.pms[id], sh.demand)
			}
		})
		ReturnWorkers(borrowed)
		for id := range x.pms {
			if !oks[id] {
				continue
			}
			gi := sh.groupIdx(keys[id], rels[id], evs[id])
			sh.addMember(gi, int32(id))
			sh.groupOf[id] = gi
		}
	} else {
		ReturnWorkers(borrowed)
		for id, pm := range x.pms {
			k, rel, ev, ok := x.membership(pm, sh.demand)
			if !ok {
				continue
			}
			gi := sh.groupIdx(k, rel, ev)
			sh.addMember(gi, int32(id))
			sh.groupOf[id] = gi
		}
	}
	x.shapes[string(key)] = sh
	x.shapeList = append(x.shapeList, sh)
	return sh
}

// groupIdx returns the index of the group keyed k, creating it on first
// use.
func (sh *candShape) groupIdx(k candKey, rel, effVal float64) int32 {
	if gi, ok := sh.byKey[k]; ok {
		return gi
	}
	gi := int32(len(sh.groups))
	sh.groups = append(sh.groups, candGroup{key: k, rel: rel, effVal: effVal})
	sh.byKey[k] = gi
	return gi
}

func (sh *candShape) addMember(gi, id int32) {
	g := &sh.groups[gi]
	if len(g.members) == 0 {
		sh.nonEmpty++
	}
	i, _ := searchInt32(g.members, id)
	g.members = append(g.members, 0)
	copy(g.members[i+1:], g.members[i:])
	g.members[i] = id
}

func (sh *candShape) removeMember(gi, id int32) {
	g := &sh.groups[gi]
	i, ok := searchInt32(g.members, id)
	if !ok {
		panic(fmt.Sprintf("core: PM %d missing from its candidate group", id))
	}
	g.members = append(g.members[:i], g.members[i+1:]...)
	if len(g.members) == 0 {
		sh.nonEmpty--
	}
}

// searchInt32 is a binary search over an ascending []int32.
func searchInt32(s []int32, v int32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

// bestArrival is the sparse arrival argmax: the PM the dense BestPlacement
// scan would pick for vm, or nil when no PM scores a positive probability.
// Group values are evaluated in cellDefault's exact multiplication order
// ((p_vir * p_rel) * p_eff) on bit-identical operands, and ties resolve to
// the lowest member ID — dense's strict p > best scan in ID order — so the
// answer is bit-identical by construction.
func (x *candIndex) bestArrival(vm *cluster.VM, k int) *cluster.PM {
	sh := x.shapeFor(vm.Demand)
	if sh.nonEmpty > k {
		x.ctx.Obs.AddScoped("core.sparse_shape_overflow", 1)
	}
	tre := vm.RemainingEstimate(x.ctx.Now)
	var best *cluster.PM
	bestP := 0.0
	bestID := int32(-1)
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if len(g.members) == 0 {
			continue
		}
		cand := g.members[0]
		cc := x.classes[g.key.ci]
		overhead := cc.info.overhead
		if vm.Host == cluster.NoPM {
			overhead = cc.class.CreationTime
		}
		p := virProbability(tre, overhead)
		if p == 0 {
			continue
		}
		p *= g.rel
		if p == 0 {
			continue
		}
		p = p * g.effVal
		if p > bestP || (p == bestP && bestID >= 0 && cand < bestID) {
			bestP, bestID = p, cand
			best = x.pms[cand]
		}
	}
	return best
}

// shortlist appends the shape's candidate PMs for vm — every PM with a
// positive probability, ordered exactly as RankPlacements orders them
// (probability descending, ID ascending) — truncated to at most k entries.
// It is the per-VM top-K shortlist of DESIGN.md §13; the property tests
// assert it always contains the dense argmax and, when k covers the whole
// feasible set, equals the dense ranking outright.
func (x *candIndex) shortlist(dst []Placement, vm *cluster.VM, k int) []Placement {
	sh := x.shapeFor(vm.Demand)
	tre := vm.RemainingEstimate(x.ctx.Now)
	for gi := range sh.groups {
		g := &sh.groups[gi]
		if len(g.members) == 0 {
			continue
		}
		cc := x.classes[g.key.ci]
		overhead := cc.info.overhead
		if vm.Host == cluster.NoPM {
			overhead = cc.class.CreationTime
		}
		p := virProbability(tre, overhead)
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
			dst = append(dst, Placement{PM: x.pms[id], Probability: p})
		}
	}
	// Insertion sort by (probability desc, ID asc): group counts are
	// small and the members of one group arrive pre-sorted by ID.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0; j-- {
			a, b := dst[j-1], dst[j]
			if a.Probability > b.Probability ||
				(a.Probability == b.Probability && a.PM.ID < b.PM.ID) {
				break
			}
			dst[j-1], dst[j] = b, a
		}
	}
	if k > 0 && len(dst) > k {
		dst = dst[:k]
	}
	return dst
}
