package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
)

// failingConsolidator places like first-fit but fails its first
// consolidation pass.
type failingConsolidator struct {
	policy.FirstFit
}

var errConsolidate = errors.New("consolidation refused")

func (failingConsolidator) Consolidate(*core.Context) ([]core.Move, error) {
	return nil, errConsolidate
}

// TestStepReturnsConsolidationError pins the error path of a failing
// policy: Step reports the error — wrapped, with the simulated time and
// the event that triggered the pass — instead of panicking.
func TestStepReturnsConsolidationError(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Step panicked: %v", r)
		}
	}()
	m, err := New(Config{DC: smallFleet(), Placer: failingConsolidator{}, Requests: mixedLoad()})
	if err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := m.Step()
		if err != nil {
			if !errors.Is(err, errConsolidate) {
				t.Fatalf("Step error %v does not wrap the policy error", err)
			}
			for _, want := range []string{"arrival of VM 1", "t=0"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Step error %q does not name %q", err, want)
				}
			}
			return
		}
		if !ok {
			t.Fatal("run drained without surfacing the consolidation error")
		}
	}
}
