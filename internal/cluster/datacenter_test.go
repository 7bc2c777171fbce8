package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/vector"
)

func twoClassDC(t *testing.T) *Datacenter {
	t.Helper()
	return TableIIFleet()
}

func TestNewValidation(t *testing.T) {
	fast := FastClass
	cases := map[string]Config{
		"no groups":    {RMin: vector.New(1, 1)},
		"nil class":    {RMin: vector.New(1, 1), Groups: []Group{{Count: 1}}},
		"bad rmin":     {RMin: vector.New(-1, 1), Groups: []Group{{Class: &fast, Count: 1}}},
		"zero count":   {RMin: vector.New(1, 1), Groups: []Group{{Class: &fast, Count: 0}}},
		"dim mismatch": {RMin: vector.New(1), Groups: []Group{{Class: &fast, Count: 1}}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestTableIIFleetShape(t *testing.T) {
	d := twoClassDC(t)
	if d.Size() != 100 {
		t.Fatalf("Size = %d, want 100", d.Size())
	}
	fast, slow := 0, 0
	for _, p := range d.PMs() {
		switch p.Class.Name {
		case "fast":
			fast++
		case "slow":
			slow++
		}
		if p.State != PMOff {
			t.Errorf("PM %d starts %s, want off", p.ID, p.State)
		}
	}
	if fast != 25 || slow != 75 {
		t.Errorf("fast/slow = %d/%d, want 25/75", fast, slow)
	}
}

func TestTableIIConstants(t *testing.T) {
	// Spot-check that the encoded class constants match Table II.
	if FastClass.CreationTime != 30 || SlowClass.CreationTime != 40 {
		t.Error("creation times do not match Table II")
	}
	if FastClass.MigrationTime != 40 || SlowClass.MigrationTime != 45 {
		t.Error("migration times do not match Table II")
	}
	if FastClass.OnOffOverhead != 50 || SlowClass.OnOffOverhead != 55 {
		t.Error("on/off overheads do not match Table II")
	}
	if FastClass.ActivePower != 400 || FastClass.IdlePower != 240 {
		t.Error("fast power does not match Table II")
	}
	if SlowClass.ActivePower != 300 || SlowClass.IdlePower != 180 {
		t.Error("slow power does not match Table II")
	}
	if !FastClass.Capacity.Equal(vector.New(8, 8)) || !SlowClass.Capacity.Equal(vector.New(4, 4)) {
		t.Error("capacities do not match Table II (2x4 cores/8G, 2x2 cores/4G)")
	}
}

func TestEfficiency(t *testing.T) {
	d := twoClassDC(t)
	// rmin = (1, 0.25): fast W=8 -> 400/8 = 50 W/VM; slow W=4 -> 300/4 = 75 W/VM.
	// min per-VM power = 50, so eff_fast = 1, eff_slow = 50/75 = 2/3.
	var fast, slow *PM
	for _, p := range d.PMs() {
		if p.Class.Name == "fast" && fast == nil {
			fast = p
		}
		if p.Class.Name == "slow" && slow == nil {
			slow = p
		}
	}
	if got := d.Efficiency(fast); math.Abs(got-1) > 1e-12 {
		t.Errorf("eff_fast = %g, want 1", got)
	}
	if got := d.Efficiency(slow); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("eff_slow = %g, want 2/3", got)
	}
}

func TestPMAccessors(t *testing.T) {
	d := twoClassDC(t)
	if d.PM(0) == nil || d.PM(99) == nil {
		t.Error("in-range PM lookup failed")
	}
	if d.PM(-1) != nil || d.PM(100) != nil {
		t.Error("out-of-range PM lookup should be nil")
	}
	if got := d.RMin(); !got.Equal(TableIIRMin) {
		t.Errorf("RMin = %v", got)
	}
	// RMin returns a copy.
	r := d.RMin()
	r[0] = 42
	if d.RMin()[0] == 42 {
		t.Error("RMin aliases internal state")
	}
}

func TestStateCountsAndSets(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).State = PMOn
	d.PM(1).State = PMOn
	d.PM(2).State = PMBooting
	d.PM(3).State = PMFailed

	if got := d.ActiveCount(); got != 3 {
		t.Errorf("ActiveCount = %d, want 3", got)
	}
	if got := len(d.ActivePMs()); got != 3 {
		t.Errorf("ActivePMs = %d, want 3", got)
	}
	if got := len(d.OffPMs()); got != 96 {
		t.Errorf("OffPMs = %d, want 96 (failed PM excluded)", got)
	}
	counts := d.CountByState()
	if counts[PMOn] != 2 || counts[PMBooting] != 1 || counts[PMFailed] != 1 || counts[PMOff] != 96 {
		t.Errorf("CountByState = %v", counts)
	}

	vm := NewVM(1, vector.New(1, 1), 10, 10, 0)
	if err := d.PM(0).Host(vm); err != nil {
		t.Fatal(err)
	}
	if got := d.NonIdleCount(); got != 1 {
		t.Errorf("NonIdleCount = %d, want 1", got)
	}
	if got := len(d.IdlePMs()); got != 1 { // PM 1 on+empty; booting PM not idle
		t.Errorf("IdlePMs = %d, want 1", got)
	}
	if got := d.VMCount(); got != 1 {
		t.Errorf("VMCount = %d, want 1", got)
	}
}

func TestRunningVMsSorted(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).State = PMOn
	d.PM(50).State = PMOn
	for _, pair := range []struct {
		pm PMID
		vm VMID
	}{{50, 9}, {0, 3}, {0, 7}} {
		if err := d.PM(pair.pm).Host(NewVM(pair.vm, vector.New(1, 0.5), 10, 10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	vms := d.RunningVMs()
	if len(vms) != 3 || vms[0].ID != 3 || vms[1].ID != 7 || vms[2].ID != 9 {
		t.Errorf("RunningVMs = %v", vms)
	}
}

// TestSetVMStateMaintainsRunningList drives VMs in and out of VMRunning
// in scrambled ID order and checks Running against a filtered, sorted
// reference: after every change, and once more only at the end, so that
// re-entries also meet their own stale entries before any compaction.
func TestSetVMStateMaintainsRunningList(t *testing.T) {
	ops := []struct {
		id VMID
		st VMState
	}{
		{9, VMCreating}, {9, VMRunning}, {3, VMRunning}, {12, VMRunning}, {7, VMRunning},
		{3, VMMigrating}, {1, VMRunning}, {12, VMFinished}, {3, VMRunning}, {5, VMRunning},
		{7, VMMigrating}, {7, VMRunning}, {9, VMRunning}, {1, VMQueued}, {5, VMFinished},
		{1, VMRunning}, {4, VMRunning},
	}
	for _, checkEach := range []bool{true, false} {
		d := twoClassDC(t)
		vms := map[VMID]*VM{}
		for _, op := range ops {
			if vms[op.id] == nil {
				vms[op.id] = NewVM(op.id, vector.New(1, 0.5), 10, 10, 0)
			}
		}
		check := func(step string) {
			t.Helper()
			var want []VMID
			for id, vm := range vms {
				if vm.State == VMRunning {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			var got []VMID
			for _, vm := range d.Running() {
				got = append(got, vm.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Running = %v, want %v", step, got, want)
			}
		}
		for _, op := range ops {
			d.SetVMState(vms[op.id], op.st)
			if checkEach {
				check(fmt.Sprintf("VM %d -> %s", op.id, op.st))
			}
		}
		check("end")
	}
}

func TestAverageVMsPerPM(t *testing.T) {
	d := twoClassDC(t)
	if got := d.AverageVMsPerPM(2.5); got != 2.5 {
		t.Errorf("cold-start fallback = %g", got)
	}
	d.PM(0).State = PMOn
	d.PM(1).State = PMOn
	for i := VMID(0); i < 3; i++ {
		if err := d.PM(0).Host(NewVM(i, vector.New(1, 0.5), 10, 10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PM(1).Host(NewVM(10, vector.New(1, 0.5), 10, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if got := d.AverageVMsPerPM(0); got != 2 { // 4 VMs / 2 non-idle PMs
		t.Errorf("AverageVMsPerPM = %g, want 2", got)
	}
}

func TestCheckInvariantsClean(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).State = PMOn
	if err := d.PM(0).Host(NewVM(1, vector.New(2, 1), 10, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	d := twoClassDC(t)
	d.PM(0).State = PMOn
	vm := NewVM(1, vector.New(2, 1), 10, 10, 0)
	if err := d.PM(0).Host(vm); err != nil {
		t.Fatal(err)
	}

	// Corrupt usage accounting.
	d.PM(0).Used[0] = 7
	if err := d.CheckInvariants(); err == nil {
		t.Error("corrupted usage not detected")
	}
	d.PM(0).Used[0] = 2

	// VM host mismatch.
	vm.Host = 5
	if err := d.CheckInvariants(); err == nil {
		t.Error("host mismatch not detected")
	}
	vm.Host = 0

	// PM off while hosting.
	d.PM(0).State = PMOff
	if err := d.CheckInvariants(); err == nil {
		t.Error("off PM hosting VMs not detected")
	}
	d.PM(0).State = PMOn

	// Duplicate VM across PMs.
	d.PM(1).State = PMOn
	d.PM(1).vms[vm.ID] = vm
	d.PM(1).Used.AddInPlace(vm.Demand)
	vmOK := NewVM(1, vector.New(2, 1), 10, 10, 0)
	vmOK.Host = 1
	d.PM(1).vms[vm.ID] = vmOK
	if err := d.CheckInvariants(); err == nil {
		t.Error("duplicate VM not detected")
	}
}

func TestTableIIFleetScaled(t *testing.T) {
	d := TableIIFleetScaled(40)
	if d.Size() != 40 {
		t.Errorf("Size = %d, want 40", d.Size())
	}
	counts := map[string]int{}
	for _, p := range d.PMs() {
		counts[p.Class.Name]++
	}
	if counts["fast"] != 10 || counts["slow"] != 30 {
		t.Errorf("class mix = %v, want 10/30", counts)
	}
	if d2 := TableIIFleetScaled(1); d2.Size() < 2 {
		t.Error("degenerate size should be clamped to >= 2")
	}
}

func TestFleetsAreIndependent(t *testing.T) {
	a, b := TableIIFleet(), TableIIFleet()
	a.PM(0).Class.Reliability = 0.5
	if b.PM(0).Class.Reliability == 0.5 {
		t.Error("fleets share class instances")
	}
}
