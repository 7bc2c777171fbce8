package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"repro/internal/metrics"
)

// checkError is a failed output check, named with its workload.
type checkError struct {
	workload, check, detail string
}

func (e *checkError) Error() string {
	return fmt.Sprintf("check %s failed on %s: %s", e.check, e.workload, e.detail)
}

func failCheck(w spec, check, format string, args ...any) error {
	return &checkError{workload: w.name, check: check, detail: fmt.Sprintf(format, args...)}
}

// checkRun runs the seed-independent checks on one finished run: every
// request completes and, on a recorded run, both sinks are error-free and
// the trace ends in run_end.
func checkRun(w spec, out outcome) error {
	s := out.res.Summary
	if s.VMsCompleted != out.requests || s.Rejected != 0 {
		return failCheck(w, "completes", "%d of %d requests completed, %d rejected",
			s.VMsCompleted, out.requests, s.Rejected)
	}
	if out.recorded {
		if out.sinkErr != nil {
			return failCheck(w, "sinks", "%v", out.sinkErr)
		}
		if out.traceLast != "run_end" {
			return failCheck(w, "trace_end", "trace ends in %q, want run_end", out.traceLast)
		}
	}
	return nil
}

// checkSameSummary fails unless got equals want field for field, floats
// compared bit for bit.
func checkSameSummary(w spec, check string, want, got metrics.Summary) error {
	a, b := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < a.NumField(); i++ {
		x, y := a.Field(i), b.Field(i)
		same := false
		switch x.Kind() {
		case reflect.Float64:
			same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
		default:
			same = x.Interface() == y.Interface()
		}
		if !same {
			return failCheck(w, check, "Summary.%s = %v, want %v",
				a.Type().Field(i).Name, y.Interface(), x.Interface())
		}
	}
	return nil
}

// finalChecks runs the checks made once per invocation on a checked
// run: the checkpoint round trip on the recorded workload (spanned into
// tr when set) and the seed-1 anchors. It returns how long sim.Restore
// took.
func finalChecks(w spec, seed int64, out outcome, tr *tracer) (float64, error) {
	restoreS := 0.0
	if w.recorded {
		again, s, err := restoreRoundTrip(w, seed, out.lastCkpt, tr)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := checkRoundTrip(w, out.lastCkpt, again); err != nil {
			return 0, err
		}
		restoreS = s
	}
	return restoreS, checkAnchors(w, seed, out)
}

// checkRoundTrip fails unless restoring a checkpoint and saving it again
// gives the saved bytes back.
func checkRoundTrip(w spec, saved, again []byte) error {
	if len(saved) == 0 {
		return failCheck(w, "restore_roundtrip", "the run wrote no checkpoint")
	}
	if !bytes.Equal(saved, again) {
		return failCheck(w, "restore_roundtrip", "Save after Restore wrote %d bytes that differ from the %d saved",
			len(again), len(saved))
	}
	return nil
}

// checkAnchors compares week-dynamic at seed 1 with the committed
// dvmpsim anchors. Every other workload and seed passes unchecked.
func checkAnchors(w spec, seed int64, out outcome) error {
	if w.name != "week-dynamic" || seed != 1 {
		return nil
	}
	s := out.res.Summary
	kwh := math.Round(s.TotalEnergyKWh*100) / 100
	if out.requests != 9024 || s.Migrations != 5276 || s.Boots != 463 || kwh != 2032.88 {
		return failCheck(w, "seed1_anchors",
			"requests %d, migrations %d, boots %d, energy %.2f kWh; want 9024, 5276, 463, 2032.88",
			out.requests, s.Migrations, s.Boots, kwh)
	}
	return nil
}
