package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/vector"
)

// Datacenter aggregates the physical machines and the global constants the
// placement scheme derives from them: the minimal VM requirement R^MIN and
// the relative power-efficiency parameters eff_j (Section III.B.4).
type Datacenter struct {
	pms []*PM

	// rmin is R^MIN, the minimal resource requirement of any VM the data
	// center accepts; it anchors the utilization-level partition.
	rmin vector.V

	// minPerVMPower caches min_j{power_j}, the smallest per-VM active
	// power across classes, used to normalize eff_j.
	minPerVMPower float64

	// running lists the VMs in state VMRunning by ascending ID,
	// maintained by SetVMState, plus stale entries — VMs that have left
	// VMRunning — awaiting compaction.
	running []*VM
	stale   int
}

// Config describes a data center to build: a list of (class, count) groups
// and the minimal VM requirement.
type Config struct {
	Groups []Group
	RMin   vector.V
}

// Group is count PMs of a shared class.
type Group struct {
	Class *PMClass
	Count int
}

// New builds a data center from cfg. PMs are numbered sequentially in group
// order. All PMs start powered off; callers (the simulator or tests) power
// on the machines they need.
func New(cfg Config) (*Datacenter, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("cluster: datacenter needs at least one PM group")
	}
	if err := cfg.RMin.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: RMin: %w", err)
	}
	d := &Datacenter{rmin: cfg.RMin.Clone()}
	id := PMID(0)
	dim := cfg.RMin.Dim()
	for gi, g := range cfg.Groups {
		if g.Class == nil {
			return nil, fmt.Errorf("cluster: group %d has nil class", gi)
		}
		if err := g.Class.Validate(); err != nil {
			return nil, err
		}
		if g.Class.Capacity.Dim() != dim {
			return nil, fmt.Errorf("cluster: class %s capacity dim %d != RMin dim %d",
				g.Class.Name, g.Class.Capacity.Dim(), dim)
		}
		if g.Count <= 0 {
			return nil, fmt.Errorf("cluster: group %d (%s) has non-positive count %d", gi, g.Class.Name, g.Count)
		}
		for i := 0; i < g.Count; i++ {
			d.pms = append(d.pms, NewPM(id, g.Class))
			id++
		}
	}
	d.recomputeMinPower()
	return d, nil
}

// MustNew is New that panics on error; convenient for tests and examples
// with hard-coded valid configurations.
func MustNew(cfg Config) *Datacenter {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Datacenter) recomputeMinPower() {
	d.minPerVMPower = math.Inf(1)
	seen := map[*PMClass]bool{}
	for _, p := range d.pms {
		if seen[p.Class] {
			continue
		}
		seen[p.Class] = true
		if pv := d.perVMPower(p.Class); pv < d.minPerVMPower {
			d.minPerVMPower = pv
		}
	}
}

// perVMPower returns power_j for a class: active power divided by W_j, the
// per-VM power consumption (Section III.B.4).
func (d *Datacenter) perVMPower(c *PMClass) float64 {
	w := c.MaxMinimalVMs(d.rmin)
	if w <= 0 {
		return math.Inf(1) // cannot host even one minimal VM
	}
	return c.ActivePower / float64(w)
}

// Efficiency returns eff_j = min_j{power_j} / power_j for the PM's class:
// 1 for the most power-efficient class, smaller for the rest.
func (d *Datacenter) Efficiency(p *PM) float64 {
	pv := d.perVMPower(p.Class)
	if math.IsInf(pv, 1) {
		return 0
	}
	return d.minPerVMPower / pv
}

// CloneTopology returns a new datacenter with the same PM IDs, classes,
// and derived constants but entirely fresh machine state: every clone PM
// starts powered off, fully reliable, and empty. PMClass values are shared
// (they are immutable by convention). The snapshot auditor restores
// checkpoints into topology clones so a round-trip check never aliases the
// live fleet.
func (d *Datacenter) CloneTopology() *Datacenter {
	out := &Datacenter{rmin: d.rmin.Clone(), minPerVMPower: d.minPerVMPower}
	out.pms = make([]*PM, len(d.pms))
	for i, p := range d.pms {
		out.pms[i] = NewPM(p.ID, p.Class)
	}
	return out
}

// RMin returns the minimal VM requirement vector (a copy).
func (d *Datacenter) RMin() vector.V { return d.rmin.Clone() }

// RMinShared returns the minimal VM requirement vector without copying.
// The returned slice is a read-only view into the datacenter's state; it
// exists for hot paths (the placement factors evaluate it M*N times per
// consolidation) and must not be mutated.
func (d *Datacenter) RMinShared() vector.V { return d.rmin }

// Size returns the total number of PMs.
func (d *Datacenter) Size() int { return len(d.pms) }

// PM returns the PM with the given ID, or nil if out of range.
func (d *Datacenter) PM(id PMID) *PM {
	if id < 0 || int(id) >= len(d.pms) {
		return nil
	}
	return d.pms[id]
}

// PMs returns all PMs in ID order. The returned slice is shared; callers
// must not reorder it.
func (d *Datacenter) PMs() []*PM { return d.pms }

// ActivePMs returns PMs that are on or booting (consuming power and
// available for placement planning).
func (d *Datacenter) ActivePMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.State == PMOn || p.State == PMBooting {
			out = append(out, p)
		}
	}
	return out
}

// AppendActivePMs appends the on/booting PMs to dst in ID order and
// returns the extended slice. It is the allocation-free form of ActivePMs
// for hot paths (the per-arrival placement argmax, matrix construction)
// that keep a reusable backing slice across calls.
func (d *Datacenter) AppendActivePMs(dst []*PM) []*PM {
	for _, p := range d.pms {
		if p.State == PMOn || p.State == PMBooting {
			dst = append(dst, p)
		}
	}
	return dst
}

// CountByState returns how many PMs are in each state.
func (d *Datacenter) CountByState() map[PMState]int {
	m := make(map[PMState]int)
	for _, p := range d.pms {
		m[p.State]++
	}
	return m
}

// NonIdleCount returns N_nidle, the number of PMs hosting at least one VM.
func (d *Datacenter) NonIdleCount() int {
	n := 0
	for _, p := range d.pms {
		if (p.State == PMOn || p.State == PMBooting) && p.VMCount() > 0 {
			n++
		}
	}
	return n
}

// ActiveCount returns the number of PMs that are on or booting.
func (d *Datacenter) ActiveCount() int {
	n := 0
	for _, p := range d.pms {
		if p.State == PMOn || p.State == PMBooting {
			n++
		}
	}
	return n
}

// IdlePMs returns PMs that are on and hosting nothing, candidates for
// shutdown during consolidation.
func (d *Datacenter) IdlePMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.Idle() {
			out = append(out, p)
		}
	}
	return out
}

// OffPMs returns PMs that are powered off, candidates for boot. Failed PMs
// are excluded; the failure model owns their recovery.
func (d *Datacenter) OffPMs() []*PM {
	var out []*PM
	for _, p := range d.pms {
		if p.State == PMOff {
			out = append(out, p)
		}
	}
	return out
}

// RunningVMs returns every VM placed on any PM, sorted by VM ID.
func (d *Datacenter) RunningVMs() []*VM {
	var out []*VM
	for _, p := range d.pms {
		out = append(out, p.VMs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetVMState is the single write path for a VM's lifecycle state on a
// data center: it assigns vm.State and keeps the ID-ordered list of
// Running VMs (Running) in step. Every state change of a VM the data
// center hosts must go through it; a direct write to vm.State leaves the
// list stale.
//
// A VM entering VMRunning is appended — the common case, since IDs start
// running roughly in order — or inserted. A VM leaving stays in the list
// as a stale entry until the next compaction, which runs once stale
// entries reach half the list or when Running is read, so a leave costs
// O(1) amortized instead of a memmove of the list's tail.
func (d *Datacenter) SetVMState(vm *VM, st VMState) {
	if vm.State == st {
		return
	}
	was := vm.State
	vm.State = st
	switch {
	case was == VMRunning:
		d.stale++
		if 2*d.stale >= len(d.running) {
			d.compactRunning()
		}
	case st == VMRunning:
		n := len(d.running)
		if n == 0 || d.running[n-1].ID < vm.ID {
			d.running = append(d.running, vm)
			return
		}
		i, found := slices.BinarySearchFunc(d.running, vm.ID, func(v *VM, id VMID) int {
			return cmp.Compare(v.ID, id)
		})
		if !found {
			d.running = slices.Insert(d.running, i, vm)
			return
		}
		// The ID's entry is stale: this VM's own from an earlier spell in
		// VMRunning, or a departed VM's with a reused ID.
		if old := d.running[i]; old != vm && old.State == VMRunning {
			panic(fmt.Sprintf("cluster: two running VMs with ID %d", vm.ID))
		}
		d.running[i] = vm
		d.stale--
	}
}

// compactRunning drops the stale entries from the running list.
func (d *Datacenter) compactRunning() {
	d.running = slices.DeleteFunc(d.running, func(vm *VM) bool { return vm.State != VMRunning })
	d.stale = 0
}

// Running returns the VMs in state VMRunning — the columns of
// Algorithm 1 — in ascending ID order, maintained by SetVMState. The
// returned slice is shared and must not be modified or retained across
// state changes.
func (d *Datacenter) Running() []*VM {
	if d.stale > 0 {
		d.compactRunning()
	}
	return d.running
}

// CountVMs returns how many placed VMs satisfy pred. Iteration order is
// unspecified — the predicate must not depend on it. Allocation-free
// (unlike materializing RunningVMs just to count a subset).
func (d *Datacenter) CountVMs(pred func(*VM) bool) int {
	n := 0
	for _, p := range d.pms {
		for _, vm := range p.vms {
			if pred(vm) {
				n++
			}
		}
	}
	return n
}

// VMCount returns the total number of placed VMs.
func (d *Datacenter) VMCount() int {
	n := 0
	for _, p := range d.pms {
		n += p.VMCount()
	}
	return n
}

// AverageVMsPerPM returns N_Ave(t): running VMs divided by non-idle PMs
// (Section IV). It returns fallback when no PM is non-idle so the spare
// controller has a sane divisor at cold start.
func (d *Datacenter) AverageVMsPerPM(fallback float64) float64 {
	nonIdle := d.NonIdleCount()
	if nonIdle == 0 {
		return fallback
	}
	return float64(d.VMCount()) / float64(nonIdle)
}

// WalkPlacements visits every (PM, hosted VM) pair in deterministic order
// (PMs by ID, VMs by ID within a PM) and stops at the first error. The
// audit subsystem and exporters use it to traverse the full mapping
// without materializing intermediate slices per call site.
func (d *Datacenter) WalkPlacements(fn func(*PM, *VM) error) error {
	for _, p := range d.pms {
		for _, vm := range p.VMs() {
			if err := fn(p, vm); err != nil {
				return err
			}
		}
	}
	return nil
}

// VMsByState counts the placed VMs per lifecycle state. Only VMs currently
// occupying a PM appear; queued and finished VMs are not reachable from the
// datacenter.
func (d *Datacenter) VMsByState() map[VMState]int {
	m := make(map[VMState]int)
	for _, p := range d.pms {
		for _, vm := range p.vms {
			m[vm.State]++
		}
	}
	return m
}

// CheckInvariants validates global consistency: every PM's usage equals the
// sum of its VM demands and stays within capacity, and no VM appears on two
// PMs. Tests and the simulator's self-check mode call this.
func (d *Datacenter) CheckInvariants() error {
	seen := make(map[VMID]PMID)
	for _, p := range d.pms {
		sum := p.reserved.Clone()
		if !sum.NonNegative() {
			return fmt.Errorf("cluster: PM %d has negative reservations %v", p.ID, p.reserved)
		}
		for _, vm := range p.VMs() {
			if prev, dup := seen[vm.ID]; dup {
				return fmt.Errorf("cluster: VM %d on both PM %d and PM %d", vm.ID, prev, p.ID)
			}
			seen[vm.ID] = p.ID
			if vm.Host != p.ID {
				return fmt.Errorf("cluster: VM %d hosted by PM %d but Host=%d", vm.ID, p.ID, vm.Host)
			}
			sum.AddInPlace(vm.Demand)
		}
		for k := range sum {
			if diff := sum[k] - p.Used[k]; diff > 1e-6 || diff < -1e-6 {
				return fmt.Errorf("cluster: PM %d used %v != demands+reservations %v", p.ID, p.Used, sum)
			}
		}
		if !p.Used.LE(p.Class.Capacity) {
			return fmt.Errorf("cluster: PM %d used %v exceeds capacity %v", p.ID, p.Used, p.Class.Capacity)
		}
		if p.VMCount() > 0 && p.State != PMOn && p.State != PMBooting {
			return fmt.Errorf("cluster: PM %d hosts %d VMs while %s", p.ID, p.VMCount(), p.State)
		}
	}
	return nil
}
