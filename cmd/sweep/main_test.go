package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunErrors table-tests the CLI's rejection paths, mirroring
// dvmpsim's discipline: every invalid flag combination must fail with a
// non-nil one-line error naming the offending flag, before any simulation
// work starts.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring the error must contain
	}{
		{"bad flag", []string{"-badflag"}, "flag"},
		{"zero reps", []string{"-reps", "0"}, "-reps"},
		{"negative reps", []string{"-reps", "-3"}, "-reps"},
		{"negative reps with seeds", []string{"-reps", "-3", "-seeds", "1,2"}, "-reps"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-100"}, "-nodes"},
		{"negative jobs", []string{"-jobs", "-5"}, "-jobs"},
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative workers", []string{"-workers", "-2"}, "-workers"},
		{"negative sparse", []string{"-sparse", "-16"}, "-sparse"},
		{"empty scheme entry", []string{"-schemes", "dynamic,,first-fit"}, "empty scheme"},
		{"only commas", []string{"-schemes", ","}, "empty scheme"},
		{"trailing comma", []string{"-schemes", "dynamic,"}, "empty scheme"},
		{"blank scheme entry", []string{"-schemes", "dynamic, ,first-fit"}, "empty scheme"},
		{"bad seed entry", []string{"-seeds", "1,x,3"}, "seed"},
		{"zero cells", []string{"-cells", "0"}, "-cells"},
		{"negative cells", []string{"-cells", "-4"}, "-cells"},
		{"more cells than nodes", []string{"-nodes", "8", "-cells", "9"}, "-cells"},
		{"negative kernel workers", []string{"-kernel-workers", "-1"}, "-kernel-workers"},
		{"very negative kernel workers", []string{"-kernel-workers", "-8"}, "-kernel-workers"},
		{"unknown scheme", []string{"-schemes", "nope", "-reps", "1", "-nodes", "8", "-jobs", "10"}, "scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCrossFlagSchemeMatrix mirrors dvmpsim's pairwise table: -sparse
// and -kernel-workers only configure dynamic-family kernels, so a sweep
// whose roster contains no such scheme must reject them up front (before
// any run starts), while any roster containing one accepts them.
func TestCrossFlagSchemeMatrix(t *testing.T) {
	schemes := []struct {
		name  string
		isDyn bool
	}{
		{"first-fit", false},
		{"best-fit", false},
		{"worst-fit", false},
		{"random", false},
		{"threshold", false},
		{"overbook", false},
		{"dynamic", true},
		{"dynamic-adaptive", true},
	}
	flags := [][]string{
		{"-sparse", "8"},
		{"-kernel-workers", "2"},
	}
	for _, s := range schemes {
		for _, fl := range flags {
			t.Run(s.name+fl[0], func(t *testing.T) {
				args := append([]string{
					"-schemes", s.name, "-reps", "1", "-nodes", "8", "-jobs", "10", "-workers", "1",
				}, fl...)
				var sb strings.Builder
				err := run(args, &sb)
				if s.isDyn {
					if err != nil {
						t.Fatalf("%v rejected for dynamic-family scheme: %v", fl, err)
					}
					return
				}
				if err == nil {
					t.Fatalf("%v accepted for all-static roster %s", fl, s.name)
				}
				if !strings.Contains(err.Error(), "dynamic scheme family") {
					t.Errorf("error %q does not name the dynamic scheme family", err)
				}
			})
		}
	}
	// A mixed roster with one dynamic-family member accepts both flags.
	var sb strings.Builder
	if err := run([]string{
		"-schemes", "first-fit,dynamic-adaptive", "-reps", "1", "-nodes", "8", "-jobs", "10",
		"-workers", "1", "-sparse", "8", "-kernel-workers", "2",
	}, &sb); err != nil {
		t.Fatalf("mixed roster rejected dynamic-family flags: %v", err)
	}
}

// TestRunTournament pins the -tournament path: the default roster runs,
// the standings table lists every policy with a rank, and -o writes the
// full report JSON.
func TestRunTournament(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tournament.json")
	var sb strings.Builder
	err := run([]string{
		"-tournament", "-reps", "2", "-nodes", "8", "-jobs", "20", "-workers", "1", "-o", path,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tournament:", "rank", "first-fit", "best-fit", "dynamic", "overbook", "dynamic-adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("standings missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scores", "TotalScore", "Sweep"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report JSON missing %q", want)
		}
	}
}

// TestRunSmallSweep exercises the happy path end to end on a tiny sweep.
func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-schemes", "first-fit", "-reps", "1", "-nodes", "8", "-jobs", "30", "-workers", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"1 runs", "first-fit"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSparseReportMatchesDense runs the same tiny dynamic sweep twice —
// dense (-sparse 0) and sparse — and requires byte-identical report JSON: the
// candidate-set engine must not change a single decision, so energy,
// migration, and queueing aggregates all match exactly.
func TestRunSparseReportMatchesDense(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{
			"-schemes", "dynamic", "-reps", "1", "-nodes", "8", "-jobs", "40",
			"-workers", "1", "-o", path,
		}, extra...)
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dense := report("dense.json", "-sparse", "0")
	sparse := report("sparse.json", "-sparse", "64")
	if !bytes.Equal(dense, sparse) {
		t.Fatal("sparse sweep report differs from dense; the engines diverged")
	}
}

// TestRunCellsReportMatchesMonolith runs the same tiny sweep at -cells 1,
// 2, and 8 and requires byte-identical report JSON: the multi-cell engine
// makes the monolith's exact decisions, so every aggregate matches.
func TestRunCellsReportMatchesMonolith(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{
			"-schemes", "dynamic,first-fit", "-reps", "2", "-nodes", "8", "-jobs", "40",
			"-workers", "2", "-o", path,
		}, extra...)
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mono := report("mono.json")
	for _, cells := range []string{"2", "8"} {
		if got := report("cells"+cells+".json", "-cells", cells); !bytes.Equal(got, mono) {
			t.Fatalf("-cells %s sweep report differs from the monolith's", cells)
		}
	}
}
