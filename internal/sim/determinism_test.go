package sim

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/policy"
	"repro/internal/spare"
	"repro/internal/vector"
	"repro/internal/workload"
)

// mixedLoad builds a workload with varied shapes and bursts so migrations,
// boots, queueing, and spare decisions all occur.
func mixedLoad() []workload.Request {
	var out []workload.Request
	id := 0
	add := func(at, run, cpu, mem float64) {
		id++
		out = append(out, workload.Request{
			JobID: id, Submit: at,
			CPUCores: cpu, MemoryGB: mem,
			EstimatedRunTime: run, RunTime: run,
		})
	}
	for i := 0; i < 40; i++ {
		at := float64(i) * 120
		add(at, 3000+float64(i%7)*500, 1, 0.5)
		if i%3 == 0 {
			add(at, 1500, 2, 1)
		}
		if i%5 == 0 {
			add(at+1, 6000, 1, 1) // same-second sibling exercises FIFO ties
		}
	}
	return out
}

// TestRunByteIdenticalTrace is the strongest determinism statement the
// simulator can make: two runs of an identical configuration — with
// failures, timed migrations, and the spare controller all active — must
// produce byte-identical event logs, identical move lists, and identical
// summaries. Any hidden map iteration or unsorted slice in an event
// handler shows up here as a trace diff.
func TestRunByteIdenticalTrace(t *testing.T) {
	run := func() (*Result, *bytes.Buffer) {
		var trace bytes.Buffer
		sc := spare.DefaultConfig()
		res, err := Run(Config{
			DC:       smallFleet(),
			Placer:   policy.NewDynamic(),
			Requests: mixedLoad(),
			Spare:    &sc,
			Failures: failure.Config{
				MTBF: 4e4, RepairTime: 5000, Seed: 11,
				ReliabilityDecay: 0.9, MinReliability: 0.5,
			},
			TimedMigrations: true,
			WarmStart:       2,
			EventLog:        &trace,
			Audit:           0, // exercised separately; keep this run lean
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, &trace
	}
	resA, traceA := run()
	resB, traceB := run()

	if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		a, b := traceA.Bytes(), traceB.Bytes()
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		at := 0
		for at < n && a[at] == b[at] {
			at++
		}
		lo := at - 120
		if lo < 0 {
			lo = 0
		}
		hi := at + 120
		if hi > n {
			hi = n
		}
		t.Fatalf("event logs diverge at byte %d:\nA: ...%s\nB: ...%s", at, a[lo:hi], b[lo:hi])
	}
	if len(resA.Moves) != len(resB.Moves) {
		t.Fatalf("move counts differ: %d vs %d", len(resA.Moves), len(resB.Moves))
	}
	for i := range resA.Moves {
		if resA.Moves[i] != resB.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, resA.Moves[i], resB.Moves[i])
		}
	}
	if resA.Summary != resB.Summary {
		t.Fatalf("summaries differ:\nA: %+v\nB: %+v", resA.Summary, resB.Summary)
	}
	if len(resA.SparePlans) != len(resB.SparePlans) {
		t.Fatalf("spare plan counts differ: %d vs %d", len(resA.SparePlans), len(resB.SparePlans))
	}
	for i := range resA.SparePlans {
		if resA.SparePlans[i] != resB.SparePlans[i] {
			t.Fatalf("spare plan %d differs", i)
		}
	}
}

// TestMigratableVMsSorted asserts the explicit ordering contract
// Algorithm 1's tie-breaking depends on: migratable VMs come back sorted
// by ID no matter how placements are scattered across PMs.
func TestMigratableVMsSorted(t *testing.T) {
	dc := smallFleet()
	res, err := Run(Config{
		DC:       dc,
		Placer:   policy.NewDynamic(),
		Requests: mixedLoad()[:30],
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Mid-run ordering is covered by the audit fuzz harness; here assert
	// the invariant on a hand-scattered datacenter.
	dc2 := smallFleet()
	for _, pm := range dc2.PMs() {
		pm.State = cluster.PMOn
	}
	ids := []int{9, 2, 14, 5, 1, 11}
	for i, id := range ids {
		vm := cluster.NewVM(cluster.VMID(id), vector.New(1, 0.5), 1000, 1000, 0)
		if err := dc2.PM(cluster.PMID(i % dc2.Size())).Host(vm); err != nil {
			t.Fatal(err)
		}
		dc2.SetVMState(vm, cluster.VMRunning)
	}
	vms := core.MigratableVMs(dc2)
	if len(vms) != len(ids) {
		t.Fatalf("got %d migratable VMs, want %d", len(vms), len(ids))
	}
	for i := 1; i < len(vms); i++ {
		if vms[i-1].ID >= vms[i].ID {
			t.Fatalf("MigratableVMs unsorted at %d: %d >= %d", i, vms[i-1].ID, vms[i].ID)
		}
	}
}
