package main

import (
	"time"

	"nmad/internal/core"
	"nmad/internal/trace"
	"nmad/sched"
)

// electTimer accumulates the wall time of every Elect call made by the
// wrapped strategies of one run. The simulator runs one process at a
// time, so the wrappers of all engines share it without locking.
type electTimer struct {
	calls   int
	empty   int
	entries int
	total   time.Duration
	ns      []int64
}

// timedStrategy times Elect around an inner strategy and changes
// nothing else: the same window view goes in and the inner election
// comes back untouched, so the schedule cannot move.
type timedStrategy struct {
	inner sched.Strategy
	t     *electTimer
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Elect(w sched.Window, rail sched.RailInfo) *sched.Election {
	t0 := time.Now()
	el := s.inner.Elect(w, rail)
	d := time.Since(t0)
	t := s.t
	t.calls++
	t.total += d
	t.ns = append(t.ns, int64(d))
	if el.Empty() {
		t.empty++
	} else {
		t.entries += el.Len()
	}
	return el
}

// wrapStrategy returns inner behind the timing wrapper. The engine
// type-asserts BodyPlanner, Attacher and Completer on its strategy, so
// the wrapper exposes exactly the optional interfaces inner implements:
// one more would replace a default the engine applies, one fewer would
// drop a hook the strategy relies on.
func wrapStrategy(inner sched.Strategy, t *electTimer) sched.Strategy {
	ts := &timedStrategy{inner: inner, t: t}
	bp, isBP := inner.(sched.BodyPlanner)
	at, isAt := inner.(sched.Attacher)
	co, isCo := inner.(sched.Completer)
	switch {
	case isBP && isAt && isCo:
		return struct {
			*timedStrategy
			sched.BodyPlanner
			sched.Attacher
			sched.Completer
		}{ts, bp, at, co}
	case isBP && isAt:
		return struct {
			*timedStrategy
			sched.BodyPlanner
			sched.Attacher
		}{ts, bp, at}
	case isBP && isCo:
		return struct {
			*timedStrategy
			sched.BodyPlanner
			sched.Completer
		}{ts, bp, co}
	case isAt && isCo:
		return struct {
			*timedStrategy
			sched.Attacher
			sched.Completer
		}{ts, at, co}
	case isBP:
		return struct {
			*timedStrategy
			sched.BodyPlanner
		}{ts, bp}
	case isAt:
		return struct {
			*timedStrategy
			sched.Attacher
		}{ts, at}
	case isCo:
		return struct {
			*timedStrategy
			sched.Completer
		}{ts, co}
	default:
		return ts
	}
}

// engineOptions returns the options one engine is built with under in:
// a fresh wrapped strategy instance per engine (registered strategies
// such as prio keep per-engine state), plus the shared recorder and
// recording.
func engineOptions(base core.Options, in instrument, t *electTimer, rec *trace.Recording) (core.Options, *trace.Recorder, error) {
	opts := base
	if in.wrap {
		inner, err := sched.New(base.Strategy)
		if err != nil {
			return opts, nil, err
		}
		opts.StrategyImpl = wrapStrategy(inner, t)
	}
	var tr *trace.Recorder
	if in.tracer {
		tr = trace.NewRecorder()
		opts.Tracer = tr
	}
	if in.record {
		opts.Record = rec
	}
	return opts, tr, nil
}
