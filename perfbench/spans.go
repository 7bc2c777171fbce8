package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
)

// layer names a span: the public call into one layer that the traced run
// times from the benchmark's own code.
type layer uint8

const (
	lRun layer = iota // first Step to Finish: the traced run's total
	lStep
	lFinish
	lPlace
	lConsolidate
	lSpareTarget
	lWrite
	lSave
	lRestore
	nLayers
)

var layerNames = [nLayers]string{
	"run", "sim.step", "sim.finish",
	"policy.place", "policy.consolidate", "policy.spare_target",
	"obs.write", "snapshot.save", "snapshot.restore",
}

// span is one timed call. start and end are nanoseconds since the
// tracer's epoch; parent indexes the enclosing span, -1 for a root.
type span struct {
	layer      layer
	parent     int32
	start, end int64
}

// tracer keeps every span of one traced run in memory. The simulator is
// single-goroutine, so the open-span stack is the call stack.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(l layer) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerTimes sums each layer's inclusive and self time (its spans minus
// the parts of them their child spans cover) and collects its span
// durations.
func (t *tracer) layerTimes() (incl, self [nLayers]time.Duration, durs [nLayers][]time.Duration) {
	for _, s := range t.spans {
		d := time.Duration(s.end - s.start)
		incl[s.layer] += d
		self[s.layer] += d
		durs[s.layer] = append(durs[s.layer], d)
		if s.parent >= 0 {
			self[t.spans[s.parent].layer] -= d
		}
	}
	return incl, self, durs
}

// writeJSONL writes every span as one JSON line: name, start and end in
// nanoseconds, parent index and run id.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	run := strconv.Quote(t.run)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"run":%s}`+"\n",
			i, layerNames[s.layer], s.start, s.end, s.parent, run)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// percentileUS returns the nearest-rank q-quantile of ds in microseconds.
func percentileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e3
}

// timedPolicy is an inert policy decorator: it forwards every decision to
// the wrapped policy unchanged and records a span around each Place,
// Consolidate and SpareTarget call. It implements policy.Unwrapper, so
// DynamicOf, RandomOf and CaptureState see through it.
type timedPolicy struct {
	p  policy.Policy
	tr *tracer

	moves, usefulPasses int
}

func (t *timedPolicy) Name() string { return t.p.Name() }

func (t *timedPolicy) Unwrap() policy.Placer { return t.p }

func (t *timedPolicy) Place(ctx *core.Context, vm *cluster.VM) *cluster.PM {
	i := t.tr.begin(lPlace)
	pm := t.p.Place(ctx, vm)
	t.tr.end(i)
	return pm
}

func (t *timedPolicy) Consolidate(ctx *core.Context) ([]core.Move, error) {
	i := t.tr.begin(lConsolidate)
	moves, err := t.p.Consolidate(ctx)
	t.tr.end(i)
	t.moves += len(moves)
	if len(moves) > 0 {
		t.usefulPasses++
	}
	return moves, err
}

// Alternatives is forwarded untimed: the simulator never calls it, and a
// wrapped decision recorder calls its own inner policy directly.
func (t *timedPolicy) Alternatives(ctx *core.Context, vm *cluster.VM, k int) []core.Placement {
	return t.p.Alternatives(ctx, vm, k)
}

func (t *timedPolicy) SpareTarget(ctx *core.Context, baseline int) int {
	i := t.tr.begin(lSpareTarget)
	n := t.p.SpareTarget(ctx, baseline)
	t.tr.end(i)
	return n
}

// timedWriter wraps a trace or decision sink and records a span around
// each Write.
type timedWriter struct {
	w  io.Writer
	tr *tracer
}

func (t timedWriter) Write(p []byte) (int, error) {
	i := t.tr.begin(lWrite)
	n, err := t.w.Write(p)
	t.tr.end(i)
	return n, err
}
