package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
)

// Params are the two knobs the paper uses to restrain dynamic migration
// (Section III.C).
type Params struct {
	// MIGThreshold is the minimum normalized gain a migration must
	// achieve; the paper's example uses 1.05. Values <= 1 allow
	// zero-improvement churn and are rejected.
	MIGThreshold float64

	// MIGRound caps migration rounds per consolidation pass.
	MIGRound int
}

// DefaultParams returns the paper's example settings.
func DefaultParams() Params {
	return Params{MIGThreshold: 1.05, MIGRound: 10}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if !(p.MIGThreshold > 1) {
		return fmt.Errorf("core: MIG_threshold must exceed 1, got %g", p.MIGThreshold)
	}
	if p.MIGRound <= 0 {
		return fmt.Errorf("core: MIG_round must be positive, got %d", p.MIGRound)
	}
	return nil
}

// Consolidate runs Algorithm 1 (dynamic VM migration) over the data
// center's currently running VMs: build the probability matrix, normalize
// each column by its current placement, and while the largest normalized
// value exceeds MIG_threshold (and fewer than MIG_round rounds have run),
// migrate that VM and refresh the affected rows. The datacenter state is
// mutated; the executed moves are returned in order.
//
// Only VMs in the Running state participate: creating and migrating VMs
// are in transition and queued VMs hold no resources.
func Consolidate(ctx *Context, factors []Factor, params Params) ([]Move, error) {
	return ConsolidateWith(ctx, factors, params, MatrixOptions{})
}

// ConsolidateWith is Consolidate with explicit matrix options; it exists
// so the kernel-equivalence tests and benchmarks can run Algorithm 1 over
// both evaluation paths.
func ConsolidateWith(ctx *Context, factors []Factor, params Params, opts MatrixOptions) ([]Move, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	vms := ctx.DC.Running()
	if len(vms) == 0 {
		return nil, nil
	}
	if opts.CandidateK > 0 && canonicalDefault(factors) {
		return consolidateSparse(ctx, factors, params, opts)
	}
	stop := ctx.Obs.Phase("kernel_build").Time()
	m, err := NewMatrixWith(ctx, factors, vms, opts)
	stop()
	if err != nil {
		return nil, err
	}
	defer m.Release()
	stop = ctx.Obs.Phase("algo1_rounds").Time()
	var moves []Move
	for round := 1; round <= params.MIGRound; round++ {
		r, c, gain, ok := m.Best()
		if !ok || gain <= params.MIGThreshold || math.IsNaN(gain) {
			break
		}
		vm := m.vms[c]
		from := vm.Host
		if opts.DecisionHook != nil {
			opts.DecisionHook(round,
				Move{VM: vm.ID, From: from, To: m.pms[r].ID, Gain: gain, Round: round},
				m.ColumnAlternatives(c, topK))
		}
		if err := m.Apply(r, c); err != nil {
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

// MigratableVMs returns a copy of the VMs eligible for Algorithm 1 —
// state Running; creating and migrating VMs are in transition and queued
// VMs hold no resources — sorted by ID. The order holds by construction:
// cluster.Datacenter.SetVMState keeps the running list ID-ordered, and
// Algorithm 1's tie-breaks are ID-ordered, so the column order must not
// depend on an upstream implementation accident (the determinism tests
// assert it).
func MigratableVMs(dc *cluster.Datacenter) []*cluster.VM {
	return slices.Clone(dc.Running())
}

// Placement scores one candidate PM for a new VM request.
type Placement struct {
	PM          *cluster.PM
	Probability float64
}

// RankPlacements evaluates the new-arrival column of the probability
// matrix: the joint probability of hosting vm on every active PM, sorted
// by decreasing probability (ties toward lower PM ID). Infeasible PMs
// (probability 0) are omitted.
//
// This is the paper's arrival path: "if a new VM request arrives, we only
// calculate the probability in the new VM column and allocate it to the PM
// with the highest probability". Callers that only need the argmax should
// use BestPlacement, which is sort- and allocation-free.
func RankPlacements(ctx *Context, factors []Factor, vm *cluster.VM) []Placement {
	pms, k, useKernel := ctx.arrivalKernel(factors, vm)
	var out []Placement
	for r, pm := range pms {
		var p float64
		if useKernel {
			p = k.cell(r, 0, pm, vm, false)
		} else {
			p = Joint(ctx, factors, vm, pm, false)
		}
		if p > 0 {
			out = append(out, Placement{PM: pm, Probability: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].PM.ID < out[j].PM.ID
	})
	return out
}

// BestPlacement returns the highest-probability PM for vm, or nil when no
// active PM can host it (the caller then boots a machine or queues the
// request). It is a single argmax pass over the arrival column — no
// candidate slice, no sort — with ties broken toward the lower PM ID
// (ActivePMs iterates in ID order), matching RankPlacements' first entry.
func BestPlacement(ctx *Context, factors []Factor, vm *cluster.VM) *cluster.PM {
	defer ctx.Obs.Phase("arrival_place").Time()()
	pms, k, useKernel := ctx.arrivalKernel(factors, vm)
	var best *cluster.PM
	bestP := 0.0
	for r, pm := range pms {
		var p float64
		if useKernel {
			p = k.cell(r, 0, pm, vm, false)
		} else {
			p = Joint(ctx, factors, vm, pm, false)
		}
		if p > bestP {
			bestP, best = p, pm
		}
	}
	return best
}

// arrivalKernel assembles the active-PM row set and single-column kernel
// for one arrival evaluation out of the Context's arrival scratch, so the
// per-event cost is the argmax pass itself rather than slice and map
// construction.
func (ctx *Context) arrivalKernel(factors []Factor, vm *cluster.VM) ([]*cluster.PM, *kernel, bool) {
	ctx.arr.pms = ctx.DC.AppendActivePMs(ctx.arr.pms[:0])
	ctx.arr.vmBuf[0] = vm
	k, useKernel := newKernelInto(&ctx.arr.ks, ctx, factors, ctx.arr.pms, ctx.arr.vmBuf[:])
	return ctx.arr.pms, k, useKernel
}
