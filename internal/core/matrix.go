package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
)

// Matrix is the VM/PM mapping probability matrix of Eq. 1: M rows (active
// PMs) by N columns (migratable VMs). It maintains, per column, the joint
// probability of the VM's *current* placement and the best normalized
// alternative, plus a max-heap over the per-column best gains, so
// Algorithm 1 can extract the best move in O(1) and refresh only the two
// affected rows per round.
type Matrix struct {
	ctx     *Context
	factors []Factor
	opts    MatrixOptions

	// kern is the compiled factored evaluator; nil when the factor list
	// contains none of the paper's factors (or the kernel is disabled),
	// in which case cells evaluate through the generic Factor interface.
	kern *kernel

	pms []*cluster.PM // rows
	vms []*cluster.VM // columns

	rowOf map[cluster.PMID]int
	colOf map[cluster.VMID]int

	// p[r][c] = joint probability of hosting vms[c] on pms[r].
	p [][]float64

	// curRow[c] is the row index of vms[c]'s current host; curProb[c]
	// the joint probability of that placement (the column normalizer).
	curRow  []int
	curProb []float64

	// bestRow[c] / bestGain[c] track the maximizing non-host row of the
	// normalized column and its value d = p / curProb. bestP[c] caches the
	// raw probability behind bestGain[c]: for a fixed positive normalizer
	// the division is monotone, so tracker maintenance compares raw
	// probabilities and divides only when the best actually changes.
	bestRow  []int
	bestGain []float64
	bestP    []float64

	// topRows/topPs/topLen hold, per column, an exactly ordered list of
	// the column's leading positive candidate rows (probability desc,
	// row asc), flattened in topK-sized slots. Invariants, for columns
	// with a positive normalizer: the list is exactly the ordered top-L
	// rows of the column (excluding the host row), and every other row
	// orders at or below the last entry. The head mirrors
	// bestRow/bestP.
	//
	// The list makes the mass-update case cheap: when a migration
	// endpoint PM was the cached best of many columns, each affected
	// column promotes or repositions within its list in O(topK) — the
	// other rows are untouched, so the remaining entries stay exact —
	// instead of rescanning all M rows. A removal that drains a list is
	// the only event that forces the column back into a full rescan.
	topRows []int32
	topPs   []float64
	topLen  []int32

	// heap orders the columns by (bestGain desc, column asc) — a total
	// order, so heap[0] is exactly the column a linear scan would pick.
	// hpos[c] is column c's position in heap; nil until the initial
	// trackers are in place.
	heap []int
	hpos []int

	// pending is recomputeRow's reusable scratch list of columns that
	// need a full rescan.
	pending []int

	// scr is the checked-out backing storage behind every slice above
	// (scratch.go); Release returns it to the Context. Nil after Release.
	scr *matrixScratch
}

// topK is the depth of the per-column exact candidate list. Deep enough
// that consolidation rounds rarely drain a list (each migration endpoint
// consumes at most one slot per column), shallow enough that the
// per-column bookkeeping stays a handful of comparisons.
const topK = 4

// DefaultCandidateK is the candidate budget the production dynamic scheme
// runs with (policy.NewDynamic and the -sparse flags' default): large
// enough that the Table II fleet and its 1k-PM scalings never overflow a
// shape's score groups.
const DefaultCandidateK = 64

// MatrixOptions tunes matrix construction.
type MatrixOptions struct {
	// DisableKernel forces every cell through the generic Factor
	// interface instead of the factored kernel. The two paths produce
	// bit-identical matrices (asserted by TestKernelEquivalence); the
	// switch exists for equivalence testing and for benchmarking the
	// kernel against the naive path (cmd/benchreport).
	DisableKernel bool

	// DisableSlab keeps the factored kernel but forces the scalar
	// cell-at-a-time row fill instead of the batched aligned-slab path
	// (slab.go). The two fills are bit-identical (TestSlabEquivalence);
	// the switch exists to benchmark the slab layout against its scalar
	// ancestor (cmd/benchreport emits the ratio).
	DisableSlab bool

	// SelfAudit makes every Apply verify the incrementally maintained
	// state against a cold rebuild: probabilities, column trackers, and
	// the heap root must be bit-identical to a fresh NewMatrixWith over
	// the same VMs. Expensive (one full matrix build per move); the
	// simulator enables it in -audit=event mode.
	SelfAudit bool

	// CandidateK, when positive, routes consolidation and arrival
	// placement through the sparse candidate index (candidates.go,
	// sparse.go) for the canonical default factor program: decisions come
	// from per-shape score groups instead of a dense M x N fill, and are
	// bit-identical to the dense engine by construction. K is a sizing
	// contract — the expected ceiling on non-empty score groups per
	// demand shape — not a structural cap: a shape that needs more groups
	// is still scanned exactly, and the overflow is counted on
	// ctx.Obs ("core.sparse_shape_overflow") so a misconfigured K is
	// visible. Factor programs other than the canonical four fall back to
	// the dense path. Zero keeps the dense engine everywhere; the
	// production scheme (policy.NewDynamic) sets DefaultCandidateK.
	CandidateK int

	// Workers bounds the goroutines the in-run kernels fan out on
	// (parallel.go): the dense/slab build by row ranges, the build-time
	// column sweep, the sparse candidate-index sync and column scans, and
	// the sparse consolidation argmax. Zero auto-sizes to GOMAXPROCS
	// bounded by the process-wide budget shared with exp.RunSweep (and
	// stays serial below the build-size thresholds); one forces the
	// strictly serial path with its zero-allocation budgets; an explicit
	// count above one is honored verbatim — results are bit-identical at
	// every setting (DESIGN.md §15), so the knob trades goroutines for
	// wall clock, never determinism.
	Workers int

	// DecisionHook, when set, observes every Algorithm 1 migration just
	// before it is applied: the move itself plus the column's ranked
	// non-host alternatives (probability normalized by the column's
	// current placement, so scores are the gains Algorithm 1 compares;
	// the head is the chosen target; depth is at most the per-column
	// list depth, currently 4). The hook runs on both the dense and the
	// sparse engine with identical chosen moves; alternative-list depth
	// may differ cosmetically between engines (the dense list shrinks
	// conservatively mid-pass, the sparse shortlist is always exact).
	// Observation only: the hook must not mutate simulation state.
	DecisionHook func(round int, mv Move, alts []Placement)
}

// NewMatrix builds the probability matrix over the data center's active
// PMs and the given VMs (typically every running VM). Every VM must
// currently be hosted on an active PM. Rows and columns are ordered by ID
// for deterministic tie-breaking.
func NewMatrix(ctx *Context, factors []Factor, vms []*cluster.VM) (*Matrix, error) {
	return NewMatrixWith(ctx, factors, vms, MatrixOptions{})
}

// NewMatrixWith is NewMatrix with explicit options.
func NewMatrixWith(ctx *Context, factors []Factor, vms []*cluster.VM, opts MatrixOptions) (*Matrix, error) {
	if ctx == nil || ctx.DC == nil {
		return nil, fmt.Errorf("core: matrix needs a context with a datacenter")
	}
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: matrix needs at least one factor")
	}
	scr := ctx.takeScratch()
	m := &Matrix{
		ctx:     ctx,
		factors: factors,
		opts:    opts,
		scr:     scr,
		pms:     ctx.DC.AppendActivePMs(scr.pms[:0]),
		rowOf:   scr.rowOf,
		colOf:   scr.colOf,
	}
	// AppendActivePMs already yields ID order; the sort documents the row
	// contract and is O(M) on sorted input (slices.SortFunc: no
	// allocation, unlike sort.Slice).
	slices.SortFunc(m.pms, func(a, b *cluster.PM) int { return int(a.ID) - int(b.ID) })
	for r, pm := range m.pms {
		m.rowOf[pm.ID] = r
	}

	m.vms = append(scr.vms[:0], vms...)
	slices.SortFunc(m.vms, func(a, b *cluster.VM) int { return int(a.ID) - int(b.ID) })
	for c, vm := range m.vms {
		if _, dup := m.colOf[vm.ID]; dup {
			m.Release()
			return nil, fmt.Errorf("core: duplicate VM %d in matrix", vm.ID)
		}
		if _, ok := m.rowOf[vm.Host]; !ok {
			m.Release()
			return nil, fmt.Errorf("core: VM %d hosted on inactive PM %d", vm.ID, vm.Host)
		}
		m.colOf[vm.ID] = c
	}

	if !opts.DisableKernel {
		m.kern, _ = newKernelInto(&scr.ks, ctx, factors, m.pms, m.vms)
		if m.kern != nil {
			m.kern.noSlab = opts.DisableSlab
		}
	}

	nr, nc := len(m.pms), len(m.vms)
	scr.pflat = growFloats(scr.pflat, nr*nc)
	if cap(scr.prows) < nr {
		scr.prows = make([][]float64, nr)
	}
	m.p = scr.prows[:nr]
	for r := range m.p {
		m.p[r] = scr.pflat[r*nc : (r+1)*nc : (r+1)*nc]
	}
	m.curRow = growInts(scr.curRow, nc)
	m.curProb = growFloats(scr.curProb, nc)
	m.bestRow = growInts(scr.bestRow, nc)
	m.bestGain = growFloats(scr.bestGain, nc)
	m.bestP = growFloats(scr.bestP, nc)
	m.topRows = growInt32s(scr.topRows, topK*nc)
	m.topPs = growFloats(scr.topPs, topK*nc)
	m.topLen = growInt32s(scr.topLen, nc)
	m.heap, m.hpos = scr.heap[:0], scr.hpos[:0]
	m.pending = scr.pending[:0]

	m.fill()
	scr.cols = growInts(scr.cols, nc)
	for c := range scr.cols {
		scr.cols[c] = c
	}
	m.refreshColumns(scr.cols)
	m.buildHeap()
	return m, nil
}

// eval computes one cell through whichever evaluation path the matrix was
// built with.
func (m *Matrix) eval(r, c int) float64 {
	pm, vm := m.pms[r], m.vms[c]
	hosted := vm.Host == pm.ID
	if m.kern != nil {
		return m.kern.cell(r, c, pm, vm, hosted)
	}
	return Joint(m.ctx, m.factors, vm, pm, hosted)
}

// parallelBuildThreshold is the matrix size (rows * cols) below which an
// auto-sized build (MatrixOptions.Workers == 0) stays serial — goroutine
// overhead beats the win on small fleets. Explicit worker counts bypass
// it. Variable rather than constant so tests can force both paths.
var parallelBuildThreshold = 50_000

// buildWorkers resolves the worker count for a build-scale loop over
// `items` independent units costing `cells` total cell evaluations. Auto
// mode stays serial below parallelBuildThreshold; the caller must
// ReturnWorkers the borrowed tokens.
func (m *Matrix) buildWorkers(items, cells int) (workers, borrowed int) {
	if m.opts.Workers == 0 && cells < parallelBuildThreshold {
		return 1, 0
	}
	return claimWorkers(m.opts.Workers, items)
}

// fill computes every p[r][c]. Rows are independent and each lands in its
// own slice, so the build shards across workers in row spans; the
// per-class constants are prewarmed first so the Context's lazy cache is
// read-only during the parallel phase (no locking on the hot path).
// Worker count cannot change the result: every cell is a pure function of
// (row, column) state no other worker touches.
func (m *Matrix) fill() {
	workers, borrowed := m.buildWorkers(len(m.pms), len(m.pms)*len(m.vms))
	defer ReturnWorkers(borrowed)
	if workers <= 1 {
		for r := range m.pms {
			m.fillRow(r)
		}
		return
	}
	for _, pm := range m.pms {
		m.ctx.classInfoFor(pm) // prewarm: cache becomes read-only below
	}
	// Each worker owns its demand-shape memo buffers; the matrix's serial
	// rowScratch cannot be shared across goroutines.
	rss := make([]rowScratch, workers)
	runSpans(workers, len(m.pms), spanChunk(len(m.pms), workers), func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			m.fillRowWith(r, &rss[w])
		}
	})
}

// fillRow evaluates every cell of row r using the matrix's serial row
// scratch (the single-threaded fill, recomputeRow).
func (m *Matrix) fillRow(r int) {
	m.fillRowWith(r, &m.scr.rs)
}

// RefillRow recomputes the probability entries of row r in place without
// touching the derived structures (column trackers, best-move heap). It is
// the measurement hook behind the slab-vs-scalar comparison in
// BENCH_core.json: cmd/benchreport needs to time the row fill alone from
// outside the package. After RefillRow the trackers are stale with respect
// to p, so production code never calls it — Apply refills and repairs
// everything together.
func (m *Matrix) RefillRow(r int) {
	m.fillRow(r)
}

// fillRowWith evaluates every cell of row r with an explicit row scratch,
// so parallel fillers can each bring their own.
func (m *Matrix) fillRowWith(r int, rs *rowScratch) {
	pm := m.pms[r]
	row := m.p[r]
	if m.kern != nil {
		m.kern.fillRow(r, pm, m.vms, row, rs)
		return
	}
	for c, vm := range m.vms {
		row[c] = Joint(m.ctx, m.factors, vm, pm, vm.Host == pm.ID)
	}
}

// Rows and Cols report the matrix dimensions.
func (m *Matrix) Rows() int { return len(m.pms) }

// Cols reports the number of VM columns.
func (m *Matrix) Cols() int { return len(m.vms) }

// P returns the joint probability for (pm row r, vm column c).
func (m *Matrix) P(r, c int) float64 { return m.p[r][c] }

// PM returns the physical machine at row r.
func (m *Matrix) PM(r int) *cluster.PM { return m.pms[r] }

// VM returns the virtual machine at column c.
func (m *Matrix) VM(c int) *cluster.VM { return m.vms[c] }

// RowOf returns the row index of the PM with the given ID.
func (m *Matrix) RowOf(id cluster.PMID) (int, bool) {
	r, ok := m.rowOf[id]
	return r, ok
}

// CurProb returns column c's normalizer: the joint probability of the
// VM's current placement.
func (m *Matrix) CurProb(c int) float64 { return m.curProb[c] }

// BestAlt returns the tracked best non-host row of column c and its
// normalized gain, or (-1, 0) when no alternative has positive gain. The
// audit subsystem compares these trackers against the frozen oracle.
func (m *Matrix) BestAlt(c int) (row int, gain float64) {
	return m.bestRow[c], m.bestGain[c]
}

// ColumnAlternatives returns column c's tracked non-host candidates as
// ranked placements, truncated to at most k entries: the per-column
// exact list (probability desc, row asc) with each probability
// normalized by the column's current placement, so scores are directly
// comparable to MIG_threshold. When the current placement has
// probability 0 the list collapses to the single tracked rescue row
// with +Inf gain (mirroring Normalized). Returns nil when the column
// has no positive alternative. Decision recording uses this to capture
// the top-k rejected alternatives alongside each migration.
func (m *Matrix) ColumnAlternatives(c, k int) []Placement {
	cur := m.curProb[c]
	if cur <= 0 {
		if r := m.bestRow[c]; r >= 0 {
			return []Placement{{PM: m.pms[r], Probability: math.Inf(1)}}
		}
		return nil
	}
	n := int(m.topLen[c])
	if k > 0 && n > k {
		n = k
	}
	if n <= 0 {
		return nil
	}
	base := c * topK
	out := make([]Placement, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Placement{
			PM:          m.pms[m.topRows[base+i]],
			Probability: m.topPs[base+i] / cur,
		})
	}
	return out
}

// Normalized returns d_rc = p_rc / p_(current host of c), the column-
// normalized value Algorithm 1 compares against MIG_threshold. Values
// above 1 indicate the move improves the mapping; the current host is
// exactly 1. When the current placement has probability 0 (which can
// happen when a VM's remaining estimate has expired and its host became
// unreliable), any feasible alternative is treated as +Inf gain.
func (m *Matrix) Normalized(r, c int) float64 {
	if r == m.curRow[c] {
		return 1
	}
	return m.normalize(m.p[r][c], m.curProb[c])
}

func (m *Matrix) normalize(p, cur float64) float64 {
	if cur <= 0 {
		if p > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return p / cur
}

// refreshColumns recomputes curRow/curProb and the best alternative for
// every listed column, then repositions each in the gain heap. Two
// optimizations over a naive per-column rescan:
//
//   - The scan is division-free: for a positive normalizer, p/cur is
//     monotone in p, so the lowest row maximizing the raw probability is
//     the best alternative (max_r round(p_r/cur) = round(max_r p_r/cur),
//     since IEEE rounding is monotone) and one division at the end
//     recovers the gain. A non-positive normalizer means any feasible
//     alternative is a +Inf-gain rescue; the lowest such row wins.
//
//   - The columns are swept together row-major: p is stored by rows, so
//     k separate column scans stride the whole matrix k times, while one
//     joint sweep walks each row once. When a migration target was the
//     cached best of many columns, this turns the mass rescan from k
//     strided passes into a single sequential one.
//
// For positive-normalizer columns the sweep also rebuilds the exact
// top-topK candidate list that recomputeRow maintains incrementally.
//
// During the initial build — before the gain heap exists — the listed
// columns are fully independent (fixColumn is a no-op), so the sweep
// shards across workers in column spans; per-span results are
// bit-identical to the serial sweep because each column's trackers are a
// pure function of its own probabilities. Once the heap is live the
// incremental refreshes stay serial: fixColumn mutates shared heap state.
func (m *Matrix) refreshColumns(cols []int) {
	if len(cols) == 0 {
		return
	}
	if len(m.hpos) == 0 {
		workers, borrowed := m.buildWorkers(len(cols), len(m.pms)*len(cols))
		if workers > 1 {
			runSpans(workers, len(cols), spanChunk(len(cols), workers), func(_, lo, hi int) {
				m.refreshColumnSpan(cols[lo:hi])
			})
			ReturnWorkers(borrowed)
			return
		}
		ReturnWorkers(borrowed)
	}
	m.refreshColumnSpan(cols)
}

// refreshColumnSpan is refreshColumns' serial body over one span of
// columns.
func (m *Matrix) refreshColumnSpan(cols []int) {
	for _, c := range cols {
		vm := m.vms[c]
		cr, ok := m.rowOf[vm.Host]
		if !ok {
			panic(fmt.Sprintf("core: VM %d host %d left the matrix", vm.ID, vm.Host))
		}
		m.curRow[c] = cr
		m.curProb[c] = m.p[cr][c]
		m.bestRow[c] = -1
		m.bestP[c] = 0
		m.topLen[c] = 0
	}
	for r := range m.pms {
		row := m.p[r]
		for _, c := range cols {
			if r == m.curRow[c] {
				continue
			}
			p := row[c]
			if m.curProb[c] > 0 {
				// Exact top-topK insertion; rows ascend, so on equal
				// probabilities the earlier row keeps its slot.
				base := c * topK
				n := int(m.topLen[c])
				if n == topK && p <= m.topPs[base+n-1] {
					continue
				}
				if p <= 0 {
					continue
				}
				i := n
				for i > 0 && p > m.topPs[base+i-1] {
					i--
				}
				if n < topK {
					n++
					m.topLen[c] = int32(n)
				}
				copy(m.topPs[base+i+1:base+n], m.topPs[base+i:base+n-1])
				copy(m.topRows[base+i+1:base+n], m.topRows[base+i:base+n-1])
				m.topPs[base+i] = p
				m.topRows[base+i] = int32(r)
			} else if m.bestRow[c] < 0 && p > 0 {
				m.bestRow[c] = r
				m.bestP[c] = p
			}
		}
	}
	for _, c := range cols {
		if m.curProb[c] > 0 && m.topLen[c] > 0 {
			m.bestRow[c] = int(m.topRows[c*topK])
			m.bestP[c] = m.topPs[c*topK]
		}
		switch {
		case m.bestRow[c] < 0:
			m.bestGain[c] = 0
		case m.curProb[c] > 0:
			m.bestGain[c] = m.bestP[c] / m.curProb[c]
		default:
			m.bestGain[c] = math.Inf(1)
		}
		m.fixColumn(c)
	}
}

// recomputeRow re-evaluates every probability in row r and incrementally
// fixes the per-column best trackers. Columns whose normalizer changed
// (this row hosts them, or their VM moved) get a full refresh. Everywhere
// else only row r's value changed, so each column repositions row r
// within its exact top-topK candidate list in O(topK); a full column
// rescan is forced only when the list drains (every tracked candidate
// dropped out). Ties go to the lowest row, exactly what a from-scratch
// refreshColumns computes (the rebuild property test demands equality).
func (m *Matrix) recomputeRow(r int) {
	m.fillRow(r)
	pending := m.pending[:0]
	for c := range m.vms {
		if m.curRow[c] == r || m.rowOf[m.vms[c].Host] != m.curRow[c] {
			pending = append(pending, c)
			continue
		}
		p := m.p[r][c]
		if cur := m.curProb[c]; cur <= 0 {
			// +Inf rescue column: the tracker names the lowest row with
			// a positive probability. (The candidate list is not
			// maintained here; the sweep rebuilds it if the normalizer
			// ever turns positive again, which only happens through a
			// refresh.)
			if m.bestRow[c] == r {
				if p > 0 {
					m.bestP[c] = p // still the lowest positive row
				} else {
					pending = append(pending, c)
				}
			} else if p > 0 && (m.bestRow[c] < 0 || r < m.bestRow[c]) {
				m.bestRow[c], m.bestGain[c], m.bestP[c] = r, math.Inf(1), p
				m.fixColumn(c)
			}
		} else if !m.retop(c, r, p) {
			pending = append(pending, c)
		} else if head := int(m.topRows[c*topK]); m.topLen[c] > 0 &&
			(head != m.bestRow[c] || m.topPs[c*topK] != m.bestP[c]) {
			m.bestRow[c] = head
			m.bestP[c] = m.topPs[c*topK]
			m.bestGain[c] = m.bestP[c] / cur
			m.fixColumn(c)
		}
	}
	m.pending = pending
	m.refreshColumns(pending)
}

// retop repositions row r with its new probability p inside column c's
// exact top-topK candidate list. It reports false when the list drained
// and the column needs a full rescan. The list invariants (see the field
// docs) make every step exact: entries for other rows are untouched, so
// removing, repositioning, or inserting r against them preserves both the
// ordering and the everything-else-orders-below-the-tail guarantee.
func (m *Matrix) retop(c, r int, p float64) bool {
	base := c * topK
	n := int(m.topLen[c])
	pos := -1
	for i := 0; i < n; i++ {
		if int(m.topRows[base+i]) == r {
			pos = i
			break
		}
	}
	if pos < 0 {
		// r was outside the list (at or below the tail). It enters only
		// if it now orders above the tail — or if the list is certified
		// empty, in which case r is the only positive row. A value
		// between the tail and unknown outside rows stays out: the list
		// shrinks conservatively rather than guessing.
		if p <= 0 {
			return true
		}
		if n > 0 {
			tailP, tailR := m.topPs[base+n-1], int(m.topRows[base+n-1])
			if p < tailP || (p == tailP && r > tailR) {
				return true
			}
		}
	} else {
		oldP := m.topPs[base+pos]
		if p == oldP {
			return true // unchanged
		}
		// Remove r; it re-inserts below if it still provably orders
		// above everything outside the list. The outside rows are
		// bounded by the old tail — which is r's own old value when r
		// was the tail — so that is what a lowered r must still beat.
		copy(m.topPs[base+pos:base+n-1], m.topPs[base+pos+1:base+n])
		copy(m.topRows[base+pos:base+n-1], m.topRows[base+pos+1:base+n])
		n--
		qualified := p > 0
		if qualified {
			if pos == n { // r was the tail
				qualified = p > oldP
			} else {
				tailP, tailR := m.topPs[base+n-1], int(m.topRows[base+n-1])
				qualified = p > tailP || (p == tailP && r < tailR)
			}
		}
		if !qualified {
			m.topLen[c] = int32(n)
			return n > 0
		}
	}
	i := n
	for i > 0 && (p > m.topPs[base+i-1] ||
		(p == m.topPs[base+i-1] && r < int(m.topRows[base+i-1]))) {
		i--
	}
	if n < topK {
		n++
		m.topLen[c] = int32(n)
	}
	copy(m.topPs[base+i+1:base+n], m.topPs[base+i:base+n-1])
	copy(m.topRows[base+i+1:base+n], m.topRows[base+i:base+n-1])
	m.topPs[base+i] = p
	m.topRows[base+i] = int32(r)
	return true
}

// better reports whether column a should sit above column b in the gain
// heap: higher gain first, ties toward the lower column. Because this is a
// total order, the heap root is exactly the column the pre-heap linear
// scan selected, preserving Algorithm 1's deterministic tie-breaking
// (lowest VM ID; the lowest qualifying row is already tracked by
// refreshColumn).
func (m *Matrix) better(a, b int) bool {
	ga, gb := m.bestGain[a], m.bestGain[b]
	if ga != gb {
		return ga > gb
	}
	return a < b
}

// buildHeap heapifies all columns once the initial trackers are computed.
func (m *Matrix) buildHeap() {
	for i := 0; i < len(m.vms); i++ {
		m.heap = append(m.heap, i)
		m.hpos = append(m.hpos, i)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// fixColumn restores the heap invariant after column c's bestGain changed.
// No-op before the heap exists (during the initial tracker pass).
func (m *Matrix) fixColumn(c int) {
	if len(m.hpos) == 0 {
		return
	}
	m.siftUp(m.hpos[c])
	m.siftDown(m.hpos[c])
}

func (m *Matrix) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.better(m.heap[i], m.heap[parent]) {
			return
		}
		m.heapSwap(i, parent)
		i = parent
	}
}

func (m *Matrix) siftDown(i int) {
	n := len(m.heap)
	for {
		best := i
		if l := 2*i + 1; l < n && m.better(m.heap[l], m.heap[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && m.better(m.heap[r], m.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		m.heapSwap(i, best)
		i = best
	}
}

func (m *Matrix) heapSwap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.hpos[m.heap[i]] = i
	m.hpos[m.heap[j]] = j
}

// Best returns the globally maximal normalized gain and its (row, col), or
// ok = false when no column has a positive-gain alternative. Ties break
// toward the lowest column (VM ID) then lowest row (PM ID), keeping runs
// deterministic. The answer is the root of the gain heap, so extraction is
// O(1) instead of a scan over all columns.
func (m *Matrix) Best() (r, c int, gain float64, ok bool) {
	if len(m.heap) == 0 {
		return -1, -1, 0, false
	}
	col := m.heap[0]
	if m.bestRow[col] < 0 || m.bestGain[col] <= 0 {
		return -1, -1, 0, false
	}
	return m.bestRow[col], col, m.bestGain[col], true
}

// Move is one migration decision produced by Algorithm 1.
type Move struct {
	VM   cluster.VMID
	From cluster.PMID
	To   cluster.PMID

	// Gain is the normalized probability ratio d_ij that justified the
	// move (> MIG_threshold).
	Gain float64

	// Round is the 1-based migration round within the consolidation
	// pass.
	Round int
}

// Apply performs the move for column c to row r: it evicts the VM from its
// current host, hosts it on the target PM, and refreshes the two affected
// rows. The datacenter state is mutated. Apply returns an error if the
// target cannot actually host the VM (which would indicate a factor bug,
// since p_res must have been positive).
func (m *Matrix) Apply(r, c int) error {
	vm := m.vms[c]
	from := m.pms[m.curRow[c]]
	to := m.pms[r]
	if err := from.Evict(vm); err != nil {
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	if err := to.Host(vm); err != nil {
		// Roll back so the model stays consistent.
		if rbErr := from.Host(vm); rbErr != nil {
			panic(fmt.Sprintf("core: rollback failed after host error (%v): %v", err, rbErr))
		}
		return fmt.Errorf("core: apply move of VM %d: %w", vm.ID, err)
	}
	vm.Migrations++
	if m.kern != nil {
		m.kern.moveHosted(c, m.rowOf[from.ID], r)
	}
	m.recomputeRow(m.rowOf[from.ID])
	m.recomputeRow(m.rowOf[to.ID])
	if m.opts.SelfAudit {
		if err := m.verifyRebuild(); err != nil {
			return fmt.Errorf("core: self-audit after moving VM %d to PM %d: %w", vm.ID, to.ID, err)
		}
	}
	return nil
}

// SelfCheck re-derives every column tracker and the heap shape from the
// stored probabilities and reports the first divergence. It is the
// "re-derivable from scratch" half of the audit contract: the incremental
// maintenance in recomputeRow/refreshColumns must never drift from what a
// brute-force rescan of m.p computes, including tie-breaks (lowest row,
// then lowest column) and the +Inf rescue rule for zero normalizers.
func (m *Matrix) SelfCheck() error {
	for c, vm := range m.vms {
		cr, ok := m.rowOf[vm.Host]
		if !ok {
			return fmt.Errorf("core: column %d (VM %d) hosted on PM %d outside the matrix", c, vm.ID, vm.Host)
		}
		if m.curRow[c] != cr {
			return fmt.Errorf("core: column %d curRow %d, want %d", c, m.curRow[c], cr)
		}
		if m.curProb[c] != m.p[cr][c] {
			return fmt.Errorf("core: column %d curProb %g, want %g", c, m.curProb[c], m.p[cr][c])
		}
		cur := m.curProb[c]
		bestRow, bestP := -1, 0.0
		for r := range m.pms {
			if r == cr {
				continue
			}
			p := m.p[r][c]
			if cur > 0 {
				if p > bestP {
					bestP, bestRow = p, r
				}
			} else if p > 0 && bestRow < 0 {
				bestRow, bestP = r, p
			}
		}
		gain := 0.0
		switch {
		case bestRow < 0:
		case cur > 0:
			gain = bestP / cur
		default:
			gain = math.Inf(1)
		}
		if m.bestRow[c] != bestRow || m.bestGain[c] != gain {
			return fmt.Errorf("core: column %d tracker (row %d, gain %g) != rescan (row %d, gain %g)",
				c, m.bestRow[c], m.bestGain[c], bestRow, gain)
		}
		if bestRow >= 0 && m.bestP[c] != bestP {
			return fmt.Errorf("core: column %d bestP %g != rescan %g", c, m.bestP[c], bestP)
		}
	}
	if m.heap != nil {
		if len(m.heap) != len(m.vms) || len(m.hpos) != len(m.vms) {
			return fmt.Errorf("core: heap size %d != %d columns", len(m.heap), len(m.vms))
		}
		for i, c := range m.heap {
			if c < 0 || c >= len(m.vms) || m.hpos[c] != i {
				return fmt.Errorf("core: heap position map broken at slot %d (column %d)", i, c)
			}
		}
		for i := 1; i < len(m.heap); i++ {
			if m.better(m.heap[i], m.heap[(i-1)/2]) {
				return fmt.Errorf("core: heap property violated at slot %d", i)
			}
		}
	}
	return nil
}

// Diff compares two matrices bit-for-bit: dimensions, row/column
// identities, every probability, the column trackers, and the Best
// extraction. A nil return means the matrices are interchangeable for
// Algorithm 1.
func (m *Matrix) Diff(o *Matrix) error {
	if m.Rows() != o.Rows() || m.Cols() != o.Cols() {
		return fmt.Errorf("core: matrix %dx%d != %dx%d", m.Rows(), m.Cols(), o.Rows(), o.Cols())
	}
	for r := range m.pms {
		if m.pms[r].ID != o.pms[r].ID {
			return fmt.Errorf("core: row %d is PM %d vs PM %d", r, m.pms[r].ID, o.pms[r].ID)
		}
	}
	for c := range m.vms {
		if m.vms[c].ID != o.vms[c].ID {
			return fmt.Errorf("core: column %d is VM %d vs VM %d", c, m.vms[c].ID, o.vms[c].ID)
		}
	}
	for r := range m.pms {
		for c := range m.vms {
			if a, b := m.p[r][c], o.p[r][c]; a != b {
				return fmt.Errorf("core: p[%d][%d] = %v vs %v (PM %d, VM %d)",
					r, c, a, b, m.pms[r].ID, m.vms[c].ID)
			}
		}
	}
	for c := range m.vms {
		if m.curRow[c] != o.curRow[c] || m.curProb[c] != o.curProb[c] {
			return fmt.Errorf("core: column %d normalizer (row %d, p %g) vs (row %d, p %g)",
				c, m.curRow[c], m.curProb[c], o.curRow[c], o.curProb[c])
		}
		if m.bestRow[c] != o.bestRow[c] || m.bestGain[c] != o.bestGain[c] {
			return fmt.Errorf("core: column %d best (row %d, gain %g) vs (row %d, gain %g)",
				c, m.bestRow[c], m.bestGain[c], o.bestRow[c], o.bestGain[c])
		}
	}
	mr, mc, mg, mok := m.Best()
	or, oc, og, ook := o.Best()
	if mok != ook || (mok && (mr != or || mc != oc || mg != og)) {
		return fmt.Errorf("core: Best (%d, %d, %g, %t) vs (%d, %d, %g, %t)", mr, mc, mg, mok, or, oc, og, ook)
	}
	return nil
}

// verifyRebuild checks the live matrix against a cold rebuild over the
// same VM set (SelfAudit mode).
func (m *Matrix) verifyRebuild() error {
	opts := m.opts
	opts.SelfAudit = false
	fresh, err := NewMatrixWith(m.ctx, m.factors, m.vms, opts)
	if err != nil {
		return fmt.Errorf("core: rebuild failed: %w", err)
	}
	defer fresh.Release()
	if err := m.SelfCheck(); err != nil {
		return err
	}
	return m.Diff(fresh)
}

// String renders the normalized matrix for debugging, in the layout of the
// paper's worked example (PM rows x VM columns).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "")
	for _, vm := range m.vms {
		fmt.Fprintf(&b, " VM%-6d", vm.ID)
	}
	b.WriteByte('\n')
	for r, pm := range m.pms {
		fmt.Fprintf(&b, "PM%-6d", pm.ID)
		for c := range m.vms {
			fmt.Fprintf(&b, " %8.4f", m.Normalized(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
