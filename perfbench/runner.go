package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runOpts selects how one run of a workload is carried out.
type runOpts struct {
	// plain drops the recorded workload's trace, decision log, metrics
	// registry and checkpoints: the same inputs with no instrumentation.
	plain bool

	// tr, when set, makes this the traced run: the policy, the sinks,
	// every Step, Finish and Save are timed into tr, and the observer's
	// phase spans are kept.
	tr *tracer

	// setupOnly stops after sim.New.
	setupOnly bool
}

// outcome is what one run produced.
type outcome struct {
	requests   int
	genS       float64 // workload generation, part of setupS
	setupS     float64 // generation, fleet build and sim.New
	simS       float64 // first Step to Finish
	dispatched uint64
	res        *sim.Result

	// obs is the run's observer (nil for an uninstrumented run); the
	// traced run reads its phase spans.
	obs *obs.Observer
	pol *timedPolicy

	// Recorded runs only.
	recorded               bool
	traceEvents, decisions uint64
	traceBytes, decBytes   int64
	traceLast              string // event name of the trace's last line
	sinkErr                error  // first Err() of the tracer or decision sink
	saves                  int
	ckptBytes              int64
	lastCkpt               []byte
}

// runOnce runs workload w at seed once, writing any files under dir. A
// panic inside the simulator is returned as an error.
func runOnce(w spec, seed int64, dir string, o runOpts) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	reqs, err := w.requests(seed)
	if err != nil {
		return out, err
	}
	out.requests = len(reqs)
	out.genS = time.Since(t0).Seconds()
	recorded := w.recorded && !o.plain
	pol, err := w.placer(seed, recorded)
	if err != nil {
		return out, err
	}
	cfg := sim.Config{DC: w.fleet(), Placer: pol, Requests: reqs, Spare: spareConfig()}
	if o.tr != nil {
		out.pol = &timedPolicy{p: pol, tr: o.tr}
		cfg.Placer = out.pol
	}
	if recorded || o.tr != nil {
		cfg.Obs = obs.New()
		out.obs = cfg.Obs
	}
	var sinks []*sink
	if recorded {
		tsink, err := openSink(filepath.Join(dir, "trace.jsonl"), o.tr)
		if err != nil {
			return out, err
		}
		defer tsink.close()
		dsink, err := openSink(filepath.Join(dir, "decisions.jsonl"), o.tr)
		if err != nil {
			return out, err
		}
		defer dsink.close()
		sinks = []*sink{tsink, dsink}
		cfg.Obs.Trace = obs.NewTracer(tsink.w)
		cfg.Obs.Decisions = obs.NewTracer(dsink.w)
	}
	m, err := sim.New(cfg)
	if err != nil {
		return out, err
	}
	out.setupS = time.Since(t0).Seconds()
	if o.setupOnly {
		return out, nil
	}

	span := func(l layer) func() {
		if o.tr == nil {
			return func() {}
		}
		i := o.tr.begin(l)
		return func() { o.tr.end(i) }
	}
	var ckpt bytes.Buffer
	ckptPath := filepath.Join(dir, "checkpoint.json")
	last := uint64(0)
	start := time.Now()
	endRun := span(lRun)
	for {
		if recorded && m.Dispatched() >= last+ckptEvery {
			endSave := span(lSave)
			ckpt.Reset()
			if err := m.Save(&ckpt); err != nil {
				return out, fmt.Errorf("save at event %d: %w", m.Dispatched(), err)
			}
			if err := os.WriteFile(ckptPath, ckpt.Bytes(), 0o644); err != nil {
				return out, err
			}
			endSave()
			out.saves++
			out.ckptBytes += int64(ckpt.Len())
			last = m.Dispatched()
		}
		endStep := span(lStep)
		ok, err := m.Step()
		endStep()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
	}
	endFinish := span(lFinish)
	res, err := m.Finish()
	endFinish()
	endRun()
	out.simS = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	out.res = res
	out.dispatched = m.Dispatched()
	out.lastCkpt = append([]byte(nil), ckpt.Bytes()...)

	if recorded {
		out.recorded = true
		out.traceEvents = cfg.Obs.Trace.Events()
		out.decisions = cfg.Obs.Decisions.Events()
		out.sinkErr = cfg.Obs.Trace.Err()
		if out.sinkErr == nil {
			out.sinkErr = cfg.Obs.Decisions.Err()
		}
		for _, s := range sinks {
			if err := s.close(); err != nil {
				return out, err
			}
		}
		out.traceBytes, out.decBytes = sinks[0].size, sinks[1].size
		out.traceLast, err = lastEvent(sinks[0].path)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// sink is a buffered JSONL output file; in the traced run every Write
// into it is a span.
type sink struct {
	path   string
	f      *os.File
	buf    *bufio.Writer
	w      io.Writer
	size   int64
	closed bool
}

func openSink(path string, tr *tracer) (*sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &sink{path: path, f: f, buf: bufio.NewWriterSize(f, 1<<16)}
	s.w = s.buf
	if tr != nil {
		s.w = timedWriter{w: s.buf, tr: tr}
	}
	return s, nil
}

// close flushes and closes the file once and records its size.
func (s *sink) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.buf.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(s.path)
	if err != nil {
		return err
	}
	s.size = st.Size()
	return nil
}

// lastEvent returns the "event" field of the file's last JSONL line,
// reading only the file's tail.
func lastEvent(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	tail := make([]byte, min(st.Size(), 1<<16))
	if _, err := f.ReadAt(tail, st.Size()-int64(len(tail))); err != nil {
		return "", err
	}
	tail = bytes.TrimRight(tail, "\n")
	line := tail[bytes.LastIndexByte(tail, '\n')+1:]
	var ev struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return "", fmt.Errorf("last line of %s: %w", path, err)
	}
	return ev.Event, nil
}

// restoreRoundTrip restores the checkpoint into a fresh run of the same
// inputs and saves it again, returning the new bytes and the time
// sim.Restore took.
func restoreRoundTrip(w spec, seed int64, ckpt []byte, tr *tracer) ([]byte, float64, error) {
	reqs, err := w.requests(seed)
	if err != nil {
		return nil, 0, err
	}
	pol, err := w.placer(seed, w.recorded)
	if err != nil {
		return nil, 0, err
	}
	cfg := sim.Config{DC: w.fleet(), Placer: pol, Requests: reqs, Spare: spareConfig()}
	var i int32
	if tr != nil {
		i = tr.begin(lRestore)
	}
	t0 := time.Now()
	m, err := sim.Restore(cfg, bytes.NewReader(ckpt))
	restoreS := time.Since(t0).Seconds()
	if tr != nil {
		tr.end(i)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("restore: %w", err)
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		return nil, 0, fmt.Errorf("save after restore: %w", err)
	}
	return again.Bytes(), restoreS, nil
}
