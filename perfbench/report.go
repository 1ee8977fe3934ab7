package main

import "time"

const mib = 1 << 20

// Repetition bounds of the measured loops.
const (
	defaultMinReps = 3
	defaultMaxReps = 1000
)

func (c config) reps() (int, int) {
	lo, hi := c.minReps, c.maxReps
	if lo <= 0 {
		lo = defaultMinReps
	}
	if hi <= 0 {
		hi = defaultMaxReps
	}
	return lo, max(lo, hi)
}

// tally counts attempted and failed ops over every run of an
// invocation, and fails a run whose virtual results differ from the
// reference digest.
type tally struct {
	attempted, failed int
	ref               string
}

func (t *tally) add(o *outcome) {
	t.attempted += o.ops
	t.failed += o.failed
	d := o.digest()
	if t.ref == "" {
		t.ref = d
	} else if d != t.ref && o.failed == 0 {
		// Same seed, different virtual results: the run is not
		// deterministic (or observing it changed it). Every op of it
		// is suspect.
		t.failed += o.ops
	}
}

func (t *tally) result(m metricSet) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// endToEnd measures the end-to-end metrics: one warm-up run, then
// untraced repetitions while the next one is expected to end within
// the budget, reported as medians.
func endToEnd(wl workload, cfg config) (*result, error) {
	b, err := wl.prepare(cfg)
	if err != nil {
		return nil, err
	}
	var t tally
	bs := &builds{b: b}
	warm, err := bs.measure()
	if err != nil {
		return nil, err
	}
	t.add(warm.out)
	lo, hi := cfg.reps()
	var ss []*sample
	start, lap := time.Now(), time.Duration(0)
	for len(ss) < lo || (len(ss) < hi && time.Since(start)+lap <= cfg.budget) {
		t0 := time.Now()
		s, err := bs.measure()
		if err != nil {
			return nil, err
		}
		t.add(s.out)
		if len(ss) > 0 {
			// Only the first repetition's virtual results are reported;
			// the others have matched its digest.
			s.out = &outcome{ops: s.out.ops}
		}
		ss = append(ss, s)
		lap = time.Since(t0)
	}
	return t.result(endToEndMetrics(ss, bs.setups)), nil
}

// endToEndMetrics turns untraced repetitions and the set-up times of
// their builds into the end-to-end set.
func endToEndMetrics(ss []*sample, setups []float64) metricSet {
	var opsPerS, allocs, bytes, heap []float64
	for _, s := range ss {
		ops := float64(s.out.ops)
		opsPerS = append(opsPerS, ops/s.wall.Seconds())
		allocs = append(allocs, float64(s.mallocs)/ops)
		bytes = append(bytes, float64(s.allocB)/ops)
		heap = append(heap, float64(s.heapLive)/mib)
	}
	o := ss[0].out
	m := metricSet{}
	m.set("ops_per_s", "ops/s", median(opsPerS))
	m.set("allocs_per_op", "allocs/op", median(allocs))
	m.set("alloc_bytes_per_op", "B/op", median(bytes))
	m.set("heap_live_mb", "MiB", median(heap))
	m.set("setup_s", "s", median(setups))
	m.set("vt_makespan_us", "us", us(o.makespan))
	m.set("vt_latency_p50_us", "us", us(quantile(o.lat, 0.50)))
	m.set("vt_latency_p99_us", "us", us(quantile(o.lat, 0.99)))
	m.set("vt_prio_latency_p99_us", "us", us(quantile(o.prioLat, 0.99)))
	m.set("vt_goodput_mb_s", "MB/s", float64(o.payload)/1e6/o.makespan.Seconds())
	return m
}

// layerPass is one round of the per-layer runs on the same inputs.
type layerPass struct {
	primary *sample // the workload's own untraced run
	plain   *sample // the live run, untraced
	traced  *sample // the live run with a tracer on every engine
	wrapped *sample // the live run with every strategy behind the timer
}

// layerRun measures the per-layer metrics from outside: repeated passes
// of plain, traced and strategy-wrapped runs of the same inputs, whose
// differences and counters give each layer's figures. Every run's
// virtual results must match the plain run's digest.
func layerRun(wl workload, cfg config) (*result, error) {
	b, err := wl.prepare(cfg)
	if err != nil {
		return nil, err
	}
	live := b
	if wl.live != nil {
		if live, err = wl.live(cfg); err != nil {
			return nil, err
		}
	}
	// t checks the workload's own runs against each other; tl the
	// instrumented live runs against the plain one. Without a separate
	// live run the two are the same runs and share t.
	var t, tl tally
	liveT := &t
	if wl.live != nil {
		liveT = &tl
	}
	bs := &builds{b: b}
	if _, err := bs.measure(); err != nil { // warm-up
		return nil, err
	}
	lo, _ := cfg.reps()
	lo = max(1, lo/2)
	var passes []layerPass
	start, lap := time.Now(), time.Duration(0)
	for len(passes) < lo || time.Since(start)+lap <= cfg.budget {
		t0 := time.Now()
		var p layerPass
		var err error
		if p.primary, err = bs.measure(); err != nil {
			return nil, err
		}
		t.add(p.primary.out)
		p.plain = p.primary
		if wl.live != nil {
			if p.plain, err = measureOnce(live, instrument{}); err != nil {
				return nil, err
			}
			tl.add(p.plain.out)
		}
		if p.traced, err = measureOnce(live, instrument{tracer: true}); err != nil {
			return nil, err
		}
		liveT.add(p.traced.out)
		if p.wrapped, err = measureOnce(live, instrument{wrap: true}); err != nil {
			return nil, err
		}
		liveT.add(p.wrapped.out)
		passes = append(passes, p)
		lap = time.Since(t0)
	}
	all := tally{attempted: t.attempted + tl.attempted, failed: t.failed + tl.failed}
	return all.result(layerMetrics(wl, passes, all)), nil
}

// layerMetrics derives the per-layer set from the passes.
func layerMetrics(wl workload, passes []layerPass, all tally) metricSet {
	m := metricSet{}
	pick := func(f func(p layerPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	p0 := passes[0]
	o := p0.plain.out
	ops := float64(o.ops)
	prim := p0.primary.out
	pops := float64(prim.ops)
	ts := sumStats(o.stats)

	m.set("error_rate", "failed/attempted", ratio(float64(all.failed), float64(all.attempted)))

	// Runtime figures of the workload's own run.
	m.set("sim.wakeups_per_op", "wakeups/op", pick(func(p layerPass) float64 {
		return float64(p.primary.runtimeGC.wakeups) / pops
	}))
	m.set("runtime.gc_cpu_share", "ratio", pick(func(p layerPass) float64 {
		return ratio(p.primary.runtimeGC.gcCPU, p.primary.runtimeGC.allCPU)
	}))
	m.set("runtime.gc_cycles", "count", pick(func(p layerPass) float64 {
		return float64(p.primary.runtimeGC.gcCycles)
	}))

	// trace: the traced live run minus the plain one, per event.
	ev := float64(p0.traced.out.events)
	m.set("trace.events_per_op", "events/op", ev/ops)
	m.set("trace.ns_per_event", "ns", pick(func(p layerPass) float64 {
		return ratio(float64(p.traced.wall-p.plain.wall), ev)
	}))
	m.set("trace.bytes_per_event", "B", pick(func(p layerPass) float64 {
		return ratio(float64(p.traced.allocB)-float64(p.plain.allocB), ev)
	}))
	m.set("trace.jsonl_write_ns_per_op", "ns", pick(func(p layerPass) float64 {
		return ratio(float64(p.primary.out.jsonlWrite), pops)
	}))
	m.set("trace.jsonl_read_ns_per_op", "ns", pick(func(p layerPass) float64 {
		return ratio(float64(p.primary.out.jsonlRead), pops)
	}))
	m.set("trace.jsonl_bytes_per_op", "B/op", ratio(float64(prim.jsonlBytes), pops))
	harness := 0.0
	if wl.live != nil {
		harness = pick(func(p layerPass) float64 {
			return float64(p.primary.wall)/pops - float64(p.traced.wall)/ops
		})
	}
	m.set("replay.harness_ns_per_op", "ns", harness)

	// sched: the timing wrapper's figures.
	m.set("sched.elect_calls_per_op", "calls/op", float64(p0.wrapped.out.elect.calls)/ops)
	m.set("sched.elect_ns_p50", "ns", pick(func(p layerPass) float64 { return electQuantile(p.wrapped.out.elect, 0.50) }))
	m.set("sched.elect_ns_p99", "ns", pick(func(p layerPass) float64 { return electQuantile(p.wrapped.out.elect, 0.99) }))
	m.set("sched.elect_share", "ratio", pick(func(p layerPass) float64 {
		return ratio(float64(p.wrapped.out.elect.total), float64(p.wrapped.wall))
	}))
	el := p0.wrapped.out.elect
	m.set("sched.empty_elect_share", "ratio", ratio(float64(el.empty), float64(el.calls)))
	m.set("sched.entries_per_elect", "entries", ratio(float64(el.entries), float64(el.calls-el.empty)))

	// core: engine counters of the live run.
	pk := float64(ts.packets)
	m.set("core.packets_per_op", "packets/op", pk/ops)
	m.set("core.entries_per_packet", "entries", ratio(float64(ts.entries), pk))
	m.set("core.aggregated_share", "ratio", ratio(float64(ts.aggregated), pk))
	m.set("core.ctrl_piggyback_share", "ratio", ratio(float64(ts.piggy), pk))
	m.set("core.wire_bytes_per_payload_byte", "B/B", ratio(float64(ts.wire), float64(o.payload)))
	m.set("core.submit_vt_us_p50", "us", us(quantile(o.submitVT, 0.50)))
	m.set("core.rdv_per_op", "rdv/op", float64(ts.rdv)/ops)
	m.set("core.rdv_deferred_per_op", "rdv/op", float64(ts.rdvDeferred)/ops)
	m.set("core.unexpected_per_op", "msgs/op", float64(ts.unexpected)/ops)
	m.set("core.peak_unexpected", "msgs", float64(ts.peakUnexpected))
	m.set("core.reordered_per_op", "msgs/op", float64(ts.reordered)/ops)
	m.set("core.peak_held", "msgs", float64(ts.peakHeld))
	m.set("core.credits_sent_per_op", "entries/op", float64(ts.credits)/ops)
	m.set("core.retransmits_per_packet", "ratio", ratio(float64(ts.retransmits), pk))
	m.set("core.dup_acks_per_packet", "ratio", ratio(float64(ts.dupAcks), pk))
	m.set("core.body_reissues", "count", float64(ts.reissues))
	m.set("core.protocol_errors", "count", float64(ts.protoErrors))
	m.set("core.host_ns_per_op", "ns", pick(func(p layerPass) float64 {
		return float64(p.wrapped.wall-p.wrapped.out.elect.total) / ops
	}))

	// simnet: fault injector against packets injected.
	tx := float64(o.txPkts)
	m.set("simnet.drop_share", "ratio", ratio(float64(o.faults.Dropped+o.faults.OutageDropped), tx))
	m.set("simnet.dup_share", "ratio", ratio(float64(o.faults.Duplicated), tx))
	m.set("simnet.reorder_share", "ratio", ratio(float64(o.faults.Reordered), tx))

	// madmpi: per rank collective call.
	msgs, wire := 0.0, 0.0
	if wl.collectives {
		msgs, wire = float64(ts.submitted)/ops, float64(ts.wire)/ops
	}
	m.set("madmpi.msgs_per_coll", "msgs/call", msgs)
	m.set("madmpi.wire_bytes_per_coll", "B/call", wire)

	// queue and load generator.
	m.set("queue.job_wait_vt_us_p50", "us", us(quantile(o.jobWait, 0.50)))
	m.set("queue.job_wait_vt_us_p99", "us", us(quantile(o.jobWait, 0.99)))
	m.set("queue.jobs_aged_share", "ratio", ratio(float64(ts.jobsAged), float64(ts.jobsDisp)))
	m.set("queue.peak_depth", "jobs", float64(ts.peakQ))
	m.set("queue.rejected_share", "ratio", ratio(float64(ts.jobsRej), float64(ts.jobsAdm+ts.jobsRej)))
	m.set("loadgen.lag_vt_us_p99", "us", us(quantile(o.genLag, 0.99)))

	// Set-up split of the live build.
	m.set("simnet.setup_s", "s", pick(func(p layerPass) float64 { return p.plain.split.simnet.Seconds() }))
	m.set("core.setup_s", "s", pick(func(p layerPass) float64 { return p.plain.split.core.Seconds() }))
	m.set("madmpi.init_s", "s", pick(func(p layerPass) float64 { return p.plain.split.madmpi.Seconds() }))
	return m
}

func electQuantile(t *electTimer, q float64) float64 {
	if t == nil || len(t.ns) == 0 {
		return 0
	}
	xs := make([]float64, len(t.ns))
	for i, v := range t.ns {
		xs[i] = float64(v)
	}
	return quantileF(xs, q)
}
