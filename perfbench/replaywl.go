package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"nmad/internal/replay"
	"nmad/internal/trace"
)

// buildReplay returns the builder of ring-replay: set-up records the
// live ring run of pl, writes the recording as JSONL and reads it back;
// the measured run re-drives it through replay.Run, as nmad-replay
// does. The replayed virtual results must equal the live run's. Each
// run replays the recording into a world of its own, so a built
// instance can run any number of times.
//
// replay.Run exposes no per-op completion stamps, so the latency
// figures are the live run's: the equality checks below are what ties
// the replayed schedule to them.
func buildReplay(pl *ringPlan) builder {
	live := buildRing(pl)
	// replay.Run attaches its own tracers and takes no strategy value, so
	// the instruments apply to the live builder only (see layerRun).
	return func(instrument) (*instance, error) {
		inst, err := live(instrument{record: true})
		if err != nil {
			return nil, err
		}
		lo, err := inst.run()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var buf bytes.Buffer
		if err := lo.rec.Write(&buf); err != nil {
			return nil, fmt.Errorf("writing the recording: %w", err)
		}
		size := buf.Len()
		t2 := time.Now()
		rec, err := trace.ReadRecording(&buf)
		if err != nil {
			return nil, fmt.Errorf("reading the recording back: %w", err)
		}
		t3 := time.Now()
		// Keep only what the checks and the report need of the live run,
		// not its recording, so the heap figure counts the replay alone.
		var (
			ops, failed            = lo.ops, lo.failed
			lat, prioLat, submitVT = lo.lat, lo.prioLat, lo.submitVT
			payload, makespan      = lo.payload, lo.makespan
			stats                  = lo.stats
			faults, txPkts         = lo.faults, lo.txPkts
			wire                   = sumStats(lo.stats).wire
		)
		run := func() (*outcome, error) {
			o := &outcome{
				ops:        rec.Len(),
				lat:        lat,
				prioLat:    prioLat,
				submitVT:   submitVT,
				payload:    payload,
				jsonlWrite: t2.Sub(t1),
				jsonlRead:  t3.Sub(t2),
				jsonlBytes: size,
			}
			res, err := replay.Run(rec, replay.Config{})
			if err != nil {
				o.failed = o.ops
				return o, nil
			}
			o.makespan = res.Completion
			o.stats = res.Stats
			o.keep = res
			o.failed = res.RequestErrors
			// The replay must reproduce the live run: same op count,
			// completion, wire bytes and every engine counter. The live
			// run's own failures (payload checks) carry over.
			if rec.Len() != ops || res.Completion != makespan ||
				res.WireBytes() != wire || !reflect.DeepEqual(res.Stats, stats) {
				o.failed = o.ops
			}
			o.failed = min(o.ops, o.failed+failed)
			o.faults, o.txPkts = faults, txPkts
			return o, nil
		}
		return &instance{setup: inst.setup, run: run, rerun: true}, nil
	}
}
