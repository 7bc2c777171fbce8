package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// tableFactor replays a fixed probability table, mirroring the paper's
// worked example where the matrix values are given rather than derived.
type tableFactor struct {
	p map[[2]int]float64 // [pmID, vmID] -> probability
}

func (tableFactor) Name() string { return "table" }

func (t tableFactor) Probability(_ *Context, vm *cluster.VM, pm *cluster.PM, _ bool) float64 {
	return t.p[[2]int{int(pm.ID), int(vm.ID)}]
}

// paperExample builds the worked example of Section III.C: 5 VMs on 3 PMs,
// VM1 on PM2, VM2 on PM1, VM3 on PM1, VM4 on PM3, VM5 on PM3. The paper's
// figure gives the probability of VM1's current placement as 0.8 and shows
// the largest normalized value is 1.28, migrating VM2 to PM2. We encode a
// table consistent with those published anchors.
func paperExample() (*Context, []Factor, []*cluster.VM) {
	big := &cluster.PMClass{
		Name:        "big",
		Capacity:    vector.New(100, 100),
		ActivePower: 100, IdlePower: 50,
		Reliability: 1,
	}
	dc := cluster.MustNew(cluster.Config{
		RMin:   vector.New(1, 1),
		Groups: []cluster.Group{{Class: big, Count: 4}}, // PM0 unused; PMs 1-3 mirror the paper
	})
	for _, p := range dc.PMs() {
		p.State = cluster.PMOn
	}
	hosts := map[int]int{1: 2, 2: 1, 3: 1, 4: 3, 5: 3}
	vms := make([]*cluster.VM, 0, 5)
	for id := 1; id <= 5; id++ {
		vm := cluster.NewVM(cluster.VMID(id), vector.New(1, 1), 1000, 1000, 0)
		if err := dc.PM(cluster.PMID(hosts[id])).Host(vm); err != nil {
			panic(err)
		}
		dc.SetVMState(vm, cluster.VMRunning)
		vms = append(vms, vm)
	}
	table := tableFactor{p: map[[2]int]float64{
		// Columns: VM1 (cur PM2, 0.8), VM2 (cur PM1, 0.5), VM3 (cur
		// PM1, 0.6), VM4 (cur PM3, 0.7), VM5 (cur PM3, 0.9).
		{1, 1}: 0.40, {2, 1}: 0.80, {3, 1}: 0.56,
		{1, 2}: 0.50, {2, 2}: 0.64, {3, 2}: 0.30, // 0.64/0.5 = 1.28 max
		{1, 3}: 0.60, {2, 3}: 0.54, {3, 3}: 0.42,
		{1, 4}: 0.49, {2, 4}: 0.63, {3, 4}: 0.70, // 0.63/0.7 = 0.9
		{1, 5}: 0.45, {2, 5}: 0.72, {3, 5}: 0.90, // 0.72/0.9 = 0.8
		// PM0 (not in the paper) is made uniformly unattractive.
		{0, 1}: 0.01, {0, 2}: 0.01, {0, 3}: 0.01, {0, 4}: 0.01, {0, 5}: 0.01,
	}}
	return &Context{DC: dc, Now: 0}, []Factor{table}, vms
}

func TestMatrixCurrentHostNormalizedToOne(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	for c, vm := range m.vms {
		r := m.rowOf[vm.Host]
		if got := m.Normalized(r, c); got != 1 {
			t.Errorf("VM %d current-host normalized = %g, want 1", vm.ID, got)
		}
	}
}

func TestMatrixPaperExampleFirstMove(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	r, c, gain, ok := m.Best()
	if !ok {
		t.Fatal("no best move found")
	}
	if m.vms[c].ID != 2 || m.pms[r].ID != 2 {
		t.Fatalf("best move = VM%d -> PM%d, want VM2 -> PM2", m.vms[c].ID, m.pms[r].ID)
	}
	if math.Abs(gain-1.28) > 1e-12 {
		t.Errorf("gain = %g, want 1.28 (paper's worked example)", gain)
	}
}

func TestMatrixApplyMovesVMAndRefreshes(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	r, c, _, _ := m.Best()
	vm := m.vms[c]
	if err := m.Apply(r, c); err != nil {
		t.Fatal(err)
	}
	if vm.Host != 2 {
		t.Errorf("VM2 host = %d, want PM2", vm.Host)
	}
	if vm.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", vm.Migrations)
	}
	// Column 2's normalizer is now 0.64; moving back to PM1 would gain
	// 0.5/0.64 < 1, so VM2 must not be the best column anymore.
	if _, c2, gain2, ok := m.Best(); ok {
		if m.vms[c2].ID == 2 {
			t.Errorf("VM2 re-selected with gain %g after moving", gain2)
		}
	}
	if err := ctx.DC.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMatrixTrackersMatchFullRescan(t *testing.T) {
	// After several Apply calls, incremental trackers must agree with a
	// brute-force scan of the matrix.
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, c, _, ok := m.Best()
		if !ok {
			break
		}
		if err := m.Apply(r, c); err != nil {
			t.Fatal(err)
		}
		for col := range m.vms {
			wantRow, wantGain := -1, 0.0
			cur := m.rowOf[m.vms[col].Host]
			for row := range m.pms {
				if row == cur {
					continue
				}
				if g := m.Normalized(row, col); g > wantGain {
					wantGain, wantRow = g, row
				}
			}
			if m.bestRow[col] != wantRow || math.Abs(m.bestGain[col]-wantGain) > 1e-12 {
				t.Fatalf("step %d col %d tracker (%d, %g) != rescan (%d, %g)",
					i, col, m.bestRow[col], m.bestGain[col], wantRow, wantGain)
			}
			if m.curRow[col] != cur {
				t.Fatalf("step %d col %d curRow stale", i, col)
			}
		}
	}
}

func TestMatrixZeroCurrentProbability(t *testing.T) {
	ctx, _, vms := paperExample()
	// A factor that scores the current placement 0 but an alternative
	// positively must yield +Inf gain.
	f := tableFactor{p: map[[2]int]float64{
		{1, 1}: 0.5, {2, 1}: 0, {3, 1}: 0, {0, 1}: 0,
	}}
	m, err := NewMatrix(ctx, []Factor{f}, vms[:1]) // VM1 hosted on PM2
	if err != nil {
		t.Fatal(err)
	}
	r, c, gain, ok := m.Best()
	if !ok || !math.IsInf(gain, 1) {
		t.Fatalf("gain = %v (ok=%v), want +Inf", gain, ok)
	}
	if m.pms[r].ID != 1 || m.vms[c].ID != 1 {
		t.Errorf("best = VM%d -> PM%d, want VM1 -> PM1", m.vms[c].ID, m.pms[r].ID)
	}
}

func TestMatrixErrors(t *testing.T) {
	ctx, factors, vms := paperExample()
	if _, err := NewMatrix(nil, factors, vms); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := NewMatrix(ctx, nil, vms); err == nil {
		t.Error("no factors accepted")
	}
	if _, err := NewMatrix(ctx, factors, append(vms[:1], vms[0])); err == nil {
		t.Error("duplicate VM accepted")
	}
	orphan := cluster.NewVM(99, vector.New(1, 1), 10, 10, 0)
	if _, err := NewMatrix(ctx, factors, []*cluster.VM{orphan}); err == nil {
		t.Error("unhosted VM accepted")
	}
}

func TestMatrixDimensions(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 4 || m.Cols() != 5 {
		t.Errorf("dims = %dx%d, want 4x5", m.Rows(), m.Cols())
	}
	if m.P(0, 0) != 0.01 {
		t.Errorf("P(0,0) = %g", m.P(0, 0))
	}
}

func TestMatrixString(t *testing.T) {
	ctx, factors, vms := paperExample()
	m, err := NewMatrix(ctx, factors, vms)
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "PM1") || !strings.Contains(s, "VM5") {
		t.Errorf("String missing labels:\n%s", s)
	}
	if !strings.Contains(s, "1.2800") {
		t.Errorf("String missing the 1.28 gain:\n%s", s)
	}
}
