// Package core implements the paper's primary contribution: the statistical
// dynamic VM placement scheme of Section III.
//
// The scheme scores every (VM i, PM j) pair with a joint probability
//
//	p_ij = p_ij^res * p_ij^vir * p_ij^rel * p_ij^eff
//
// built from four pluggable factors (resource feasibility, virtualization
// overhead, server reliability, energy efficiency — Eq. 2-5), arranges the
// scores in an M x N probability matrix (Eq. 1), and runs Algorithm 1:
// normalize each column by the probability of the VM's current host, then
// repeatedly migrate the VM with the largest normalized gain above
// MIG_threshold, for at most MIG_round rounds, updating only the affected
// matrix rows between rounds.
//
// Because p_ij is a product, additional constraints compose by appending a
// Factor — exactly the extensibility the paper advertises ("since the p_ij
// is a joint probability, it is easy to be extended to accommodate other
// constraints in the light of users demand").
package core

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vector"
)

// Context carries the read-only simulation state factors evaluate against.
// Its internal per-class cache assumes the data center's classes and R^MIN
// do not change while the Context lives; under that invariant a single
// Context can be reused across placement events (see NewContext and At),
// which keeps the cache warm on the arrival hot path.
type Context struct {
	// DC is the data center (supplies RMin and eff_j).
	DC *cluster.Datacenter

	// Now is the current simulation time in seconds; the virtualization
	// factor uses it to compute remaining runtimes.
	Now float64

	// Obs, when non-nil, receives phase timings (kernel build, Algorithm 1
	// rounds, arrival argmax) and decision counters from the placement
	// paths. Nil — the default, and what every benchmark uses — keeps the
	// hot paths free of instrumentation beyond a nil check.
	Obs *obs.Observer

	// classes lazily caches the per-class constants (W_j, U_j^MIN,
	// eff_j) the efficiency factor needs; the factors are evaluated
	// M*N times per consolidation, so recomputing these per entry
	// dominates the run otherwise.
	classes map[*cluster.PMClass]*classInfo

	// Reusable hot-path scratch (scratch.go): mscratch backs matrix
	// builds via checkout, arr backs the per-arrival argmax. Their
	// presence is why a Context is not safe for concurrent use.
	mscratch *matrixScratch
	arr      arrivalScratch

	// cand is the sparse candidate index (candidates.go), built lazily on
	// the first placement evaluated with MatrixOptions.CandidateK > 0 and
	// kept in sync with the fleet via per-PM version stamps.
	cand *candIndex

	// sparse is the persistent consolidation engine (sparse.go), built
	// on the first sparse consolidation pass and fed deltas afterwards.
	sparse *SparseMatrix
}

// classInfo holds the per-class constants of Section III.B.4.
type classInfo struct {
	wj       int     // W_j: max minimal VMs the class can host
	umin     float64 // U_j^MIN: utilization with one minimal VM
	eff      float64 // eff_j: relative power efficiency
	invK     float64 // 1/K for inverting the level partition
	overhead float64 // T_cre + T_mig for the virtualization factor
}

// NewContext returns a reusable Context for dc. Callers that process many
// placement events (the simulator's arrival and consolidation paths) should
// build one Context per run and advance it with At, so the per-class cache
// survives across events instead of being rebuilt M times per event.
func NewContext(dc *cluster.Datacenter) *Context {
	return &Context{DC: dc}
}

// At updates the Context's clock and returns it, for chaining:
//
//	placer.Place(ctx.At(engine.Now()), vm)
//
// The per-class cache is retained; it only depends on the fleet's classes
// and R^MIN, not on time.
func (ctx *Context) At(now float64) *Context {
	ctx.Now = now
	return ctx
}

func (ctx *Context) classInfoFor(pm *cluster.PM) *classInfo {
	if info, ok := ctx.classes[pm.Class]; ok {
		return info
	}
	if ctx.classes == nil {
		ctx.classes = make(map[*cluster.PMClass]*classInfo, 4)
	}
	rmin := ctx.DC.RMinShared()
	info := &classInfo{
		wj:       pm.Class.MaxMinimalVMs(rmin),
		umin:     vector.Utilization(rmin, pm.Class.Capacity),
		eff:      ctx.DC.Efficiency(pm),
		overhead: pm.Class.CreationTime + pm.Class.MigrationTime,
	}
	if k := rmin.Dim(); k > 0 {
		info.invK = 1 / float64(k)
	}
	ctx.classes[pm.Class] = info
	return info
}

// Factor computes one conditional probability p_ij^xxx of hosting vm on pm.
// Implementations must be pure with respect to the passed state: factors
// are re-evaluated incrementally as the migration algorithm mutates
// placements, so any hidden caching would go stale.
//
// hosted reports whether pm is vm's current host; several of the paper's
// factors special-case that ("if the VM i is already hosted in the PM j
// ... the probability is 1").
type Factor interface {
	// Name identifies the factor in ablation reports ("res", "vir",
	// "rel", "eff").
	Name() string

	// Probability returns p_ij^xxx in [0, 1].
	Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64
}

// DefaultFactors returns the paper's four factors in evaluation order.
func DefaultFactors() []Factor {
	return []Factor{ResourceFactor{}, VirtualizationFactor{}, ReliabilityFactor{}, EfficiencyFactor{}}
}

// Joint evaluates the product of factors for (vm, pm), short-circuiting on
// the first zero.
func Joint(ctx *Context, factors []Factor, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	p := 1.0
	for _, f := range factors {
		p *= f.Probability(ctx, vm, pm, hosted)
		if p == 0 {
			return 0
		}
	}
	return p
}

// ResourceFactor is p_ij^res (Eq. 2): 1 when PM j has sufficient free
// resources for VM i, else 0. The current host trivially satisfies it.
type ResourceFactor struct{}

// Name implements Factor.
func (ResourceFactor) Name() string { return "res" }

// Probability implements Factor.
func (ResourceFactor) Probability(_ *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	if hosted {
		return 1
	}
	if pm.CanHost(vm.Demand) {
		return 1
	}
	return 0
}

// VirtualizationFactor is p_ij^vir (Eq. 3): 1 for the current host;
// otherwise the quadratic penalty ((T_re - T_cre - T_mig) / T_re)^2 when
// the remaining runtime exceeds the combined creation and migration
// overheads of the target PM, else 0. The quadratic form makes the
// probability fall off faster as the remaining time shrinks: a VM about to
// finish is not worth moving, because it will release its resources on its
// own.
type VirtualizationFactor struct{}

// Name implements Factor.
func (VirtualizationFactor) Name() string { return "vir" }

// Probability implements Factor.
func (VirtualizationFactor) Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	if hosted {
		return 1
	}
	// A migration pays creation plus transfer on the target (Eq. 3); an
	// initial placement of a not-yet-running VM only pays creation —
	// there is nothing to transfer yet.
	overhead := ctx.classInfoFor(pm).overhead
	if vm.Host == cluster.NoPM {
		overhead = pm.Class.CreationTime
	}
	return virProbability(vm.RemainingEstimate(ctx.Now), overhead)
}

// virProbability is the Eq. 3 penalty for remaining estimate tre against a
// target-side overhead. It is shared by VirtualizationFactor and the
// factored kernel's per-(column, class) memo so the two paths are
// bit-identical by construction.
func virProbability(tre, overhead float64) float64 {
	if tre <= 0 {
		return 0
	}
	q := (tre - overhead) / tre
	if q <= 0 {
		return 0
	}
	return q * q
}

// ReliabilityFactor is p_ij^rel (Section III.B.3): the PM's reliability
// probability, independent of the VM.
type ReliabilityFactor struct{}

// Name implements Factor.
func (ReliabilityFactor) Name() string { return "rel" }

// Probability implements Factor.
func (ReliabilityFactor) Probability(_ *Context, _ *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return pm.Reliability
}

// EfficiencyFactor is p_ij^eff (Eq. 4-5): the PM's prospective utilization
// level after hosting the VM, scaled by the class's relative power
// efficiency:
//
//	p_ij^eff = (w_j / W_j) * eff_j
//
// For the current host the PM's present utilization already includes the
// VM. A PM that cannot host even one minimal VM has W_j = 0 and scores 0.
// Higher levels score higher, which is what drives consolidation: VMs
// gravitate toward already-busy, power-efficient machines, starving idle
// PMs until the spare-server controller can switch them off.
type EfficiencyFactor struct{}

// Name implements Factor.
func (EfficiencyFactor) Name() string { return "eff" }

// Probability implements Factor.
func (EfficiencyFactor) Probability(ctx *Context, vm *cluster.VM, pm *cluster.PM, hosted bool) float64 {
	info := ctx.classInfoFor(pm)
	var u float64
	if hosted {
		u = pm.Utilization()
	} else {
		u = prospectiveUtilization(pm, vm.Demand)
	}
	return effProbability(info, u)
}

// effProbability is Eq. 4-5 for a PM of the given class at utilization u.
// It is shared by EfficiencyFactor and the factored kernel so the two
// paths are bit-identical by construction.
func effProbability(info *classInfo, u float64) float64 {
	if info.wj == 0 {
		return 0
	}
	return float64(levelOf(info, u)) / float64(info.wj) * info.eff
}

// levelOf inverts the level partition of Eq. 4 for a class at utilization
// u, returning the level in {1, ..., W_j}. It is the single source of the
// level arithmetic: effProbability and the sparse candidate index
// (candidates.go) both call it, so a PM's score group and its dense cell
// value agree bit-for-bit by construction. Callers must ensure
// info.wj > 0.
func levelOf(info *classInfo, u float64) int {
	// Eq. 5 draws w_j from {1, ..., W_j}: with VM i on board the PM is
	// never idle, so the floor of the partition is level 1. Inverting
	// the level partition of Eq. 4: w = floor((u/U_min)^(1/K)).
	level := 1
	if info.umin > 0 && u >= info.umin {
		ratio := u / info.umin
		var w float64
		if info.invK == 0.5 {
			w = math.Sqrt(ratio) // the Table II case, K = 2
		} else {
			w = math.Pow(ratio, info.invK)
		}
		level = int(w + vector.Epsilon)
		if level < 1 {
			level = 1
		}
		if level > info.wj {
			level = info.wj
		}
	} else if info.umin <= 0 && u > 0 {
		level = info.wj
	}
	return level
}

// prospectiveUtilization computes the joint utilization PM pm would have
// with demand added, without allocating an intermediate vector (this sits
// on the matrix-construction hot path).
func prospectiveUtilization(pm *cluster.PM, demand vector.V) float64 {
	u := 1.0
	cap := pm.Class.Capacity
	for k := range cap {
		if cap[k] <= vector.Epsilon {
			if pm.Used[k]+demand[k] <= vector.Epsilon {
				continue
			}
			return 0
		}
		f := (pm.Used[k] + demand[k]) / cap[k]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		u *= f
	}
	return u
}
