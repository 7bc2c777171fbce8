package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// canonicalTrace runs 400 jobs of the seed-1 week on 16 PMs under the
// dynamic scheme with spares, optionally through the timing decorator,
// and returns the run trace in canonical form.
func canonicalTrace(t *testing.T, wrap bool) []byte {
	t.Helper()
	jobs := workload.MustGenerate(workload.DefaultWeekConfig(1))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	workload.SortBySubmit(jobs)
	jobs = jobs[:400]
	var raw bytes.Buffer
	var p policy.Placer = policy.NewDynamic()
	if wrap {
		p = &timedPolicy{p: p.(policy.Policy), tr: newTracer("inert")}
	}
	cfg := sim.Config{
		DC: cluster.TableIIFleetScaled(16), Placer: p,
		Requests: workload.ToRequests(jobs), Spare: spareConfig(),
		Obs: obs.NewTracing(&raw),
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := obs.Canonicalize(&raw, &canon); err != nil {
		t.Fatal(err)
	}
	return canon.Bytes()
}

func TestTimedPolicyIsInert(t *testing.T) {
	plain, wrapped := canonicalTrace(t, false), canonicalTrace(t, true)
	if len(plain) == 0 || !bytes.Equal(plain, wrapped) {
		t.Fatalf("wrapped run's canonical trace differs from the plain run's (%d vs %d bytes)", len(wrapped), len(plain))
	}
}

// lastResult runs the command line and decodes its last stdout line.
func lastResult(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v (stderr %s)", args, lines[len(lines)-1], err, stderr.String())
	}
	if code != 0 {
		t.Logf("%v: stderr: %s", args, stderr.String())
	}
	return code, res
}

// TestSeedsPassEveryWorkload runs every workload traced (which also runs
// it plain and checks the two against each other) at seeds 1, 2 and 3,
// and once timed, and expects every output check to pass and every
// metric named in BENCHMARK.json to be reported.
func TestSeedsPassEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	e2e, perLayer := benchmarkMetricNames(t)
	for _, w := range specs {
		for _, seed := range []string{"1", "2", "3"} {
			code, res := lastResult(t, "--workload", w.name, "--seed", seed, "--trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %s traced: exit %d, correct %v, failed %d", w.name, seed, code, res.Correct, res.Failed)
			}
			expectMetrics(t, w.name, res, perLayer)
		}
		code, res := lastResult(t, "--workload", w.name, "--seed", "2", "--seconds", "0", "--trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s seed 2 timed: exit %d, correct %v, attempted %d, failed %d", w.name, code, res.Correct, res.Attempted, res.Failed)
		}
		expectMetrics(t, w.name, res, e2e)
	}
}

// benchmarkMetricNames reads the end-to-end and per-layer metric names
// from BENCHMARK.json at the repository root.
func benchmarkMetricNames(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func expectMetrics(t *testing.T, workload string, res result, names []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", workload, len(res.Metrics), len(names))
	}
	for _, n := range names {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("%s: metric %s missing", workload, n)
		}
	}
}

// TestLayersAddUp checks ROADMAP item 1's rule on the paper's own run:
// the per-layer self times of the traced run sum to its total within 2%,
// and none is negative.
func TestLayersAddUp(t *testing.T) {
	w, _ := specByName("week-dynamic")
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	ms, _, err := tracedMode(w, 1, t.TempDir(), spans, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	checkSpansFile(t, spans)
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	sum := 0.0
	for _, name := range []string{
		"sim.step_self_s", "sim.finish_s", "policy.place_s", "policy.consolidate_s",
		"policy.spare_target_s", "core.kernel_build_s", "core.algo1_rounds_s",
		"core.arrival_place_s", "spare.plan_s", "obs.write_s", "snapshot.save_s",
	} {
		if got[name] < 0 {
			t.Errorf("%s = %g, a negative self time", name, got[name])
		}
		sum += got[name]
	}
	total := got["bench.traced_sim_s"]
	if total <= 0 || math.Abs(sum-total) > 0.02*total {
		t.Errorf("layer self times sum to %.4f s, total %.4f s: off by more than 2%%", sum, total)
	}
}

func sampleOutcome() outcome {
	return outcome{requests: 9024, res: &sim.Result{Summary: metrics.Summary{
		Scheme: "dynamic", TotalEnergyKWh: 2032.884802, MeanActivePMs: 30.5, PeakActivePMs: 61,
		Migrations: 5276, Boots: 463, VMsCompleted: 9024, QueuedFraction: 0.0368,
		MeanWaitSeconds: 12.5, WaitP50: 0, WaitP95: 40, WaitP99: 300,
	}}}
}

func wantCheck(t *testing.T, err error, check string) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) || ce.check != check || ce.workload != "week-dynamic" {
		t.Errorf("got %v, want check %s to fail on week-dynamic", err, check)
	}
}

// TestMutatedSummaryFails mutates each field of a summary in turn and
// expects the comparison to fail by name; floats must match bit for bit.
func TestMutatedSummaryFails(t *testing.T) {
	w, _ := specByName("week-dynamic")
	base := sampleOutcome().res.Summary
	if err := checkSameSummary(w, "traced_summary", base, base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		mut := base
		f := reflect.ValueOf(&mut).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			if f.Float() == 0 {
				f.SetFloat(math.Copysign(0, -1))
			} else {
				f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
			}
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		}
		err := checkSameSummary(w, "traced_summary", base, mut)
		wantCheck(t, err, "traced_summary")
		if err != nil && !strings.Contains(err.Error(), reflect.TypeOf(base).Field(i).Name) {
			t.Errorf("error %q does not name field %s", err, reflect.TypeOf(base).Field(i).Name)
		}
	}
}

func TestChecksFailByName(t *testing.T) {
	w, _ := specByName("week-dynamic")
	out := sampleOutcome()
	if err := checkRun(w, out); err != nil {
		t.Fatal(err)
	}
	if err := checkAnchors(w, 1, out); err != nil {
		t.Fatal(err)
	}

	short := out
	short.requests++
	wantCheck(t, checkRun(w, short), "completes")

	moved := sampleOutcome()
	moved.res.Summary.Migrations++
	wantCheck(t, checkAnchors(w, 1, moved), "seed1_anchors")
	// The anchors hold at seed 1 only: any other seed passes them.
	if err := checkAnchors(w, 2, moved); err != nil {
		t.Errorf("anchors checked at seed 2: %v", err)
	}

	rec := out
	rec.recorded, rec.traceLast = true, "tick"
	wantCheck(t, checkRun(w, rec), "trace_end")
	rec.sinkErr = errors.New("disk full")
	wantCheck(t, checkRun(w, rec), "sinks")

	saved := []byte(`{"state":1}`)
	wantCheck(t, checkRoundTrip(w, saved, []byte(`{"state":2}`)), "restore_roundtrip")
	wantCheck(t, checkRoundTrip(w, nil, nil), "restore_roundtrip")
	if err := checkRoundTrip(w, saved, saved); err != nil {
		t.Error(err)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "week-dynamic", "--trace", "2"},
		{"--workload", "week-dynamic", "--seconds", "-1"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

// checkSpansFile reads the spans the traced run wrote and checks that
// each names a layer, ends after it starts, and lies inside its parent.
func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type spanLine struct {
		ID, Parent int
		Name, Run  string
		Start      int64 `json:"start_ns"`
		End        int64 `json:"end_ns"`
	}
	var spans []spanLine
	roots := 0
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s spanLine
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %d: %v", i+1, err)
		}
		if s.ID != i || s.Run != "week-dynamic/seed1" || s.End < s.Start {
			t.Fatalf("span line %d: %+v", i+1, s)
		}
		if s.Parent < 0 {
			roots++
		} else if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		spans = append(spans, s)
	}
	if roots != 1 || spans[0].Name != "run" {
		t.Errorf("%d root spans, first %q; want the one run span", roots, spans[0].Name)
	}
}
