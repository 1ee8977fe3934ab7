package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// instrument selects what a built world carries besides the workload.
// The zero value is the untraced configuration every end-to-end metric
// is measured on.
type instrument struct {
	// tracer attaches one trace.Recorder per engine.
	tracer bool
	// wrap replaces each engine's strategy with a timing wrapper around
	// a fresh instance of the same registered strategy.
	wrap bool
	// record attaches one trace.Recording to every engine.
	record bool
}

// outcome is what one run of a built world produced. Everything but
// the wall-clock fields is a function of the seed alone.
type outcome struct {
	ops    int // application operations attempted
	failed int // operations that failed a check or completed with an error

	makespan sim.Time   // completion of the last op
	lat      []sim.Time // per-op virtual latency
	prioLat  []sim.Time // latency of the priority / latency-class traffic
	submitVT []sim.Time // virtual time spent inside each Isend/Irecv
	payload  int64      // application payload bytes delivered

	stats  []core.Stats
	faults simnet.FaultStats
	txPkts int // physical packets injected by every NIC

	tracers []*trace.Recorder
	events  int // trace events recorded, counted once the run is over
	rec     *trace.Recording
	elect   *electTimer

	// keep holds what the finished world leaves reachable when the
	// world itself is gone (a replay's per-node timelines).
	keep any

	// Recording round trip made during set-up (ring-replay).
	jsonlWrite, jsonlRead time.Duration
	jsonlBytes            int

	// Workload-specific layer figures (queue stamps, generator lag).
	jobWait []sim.Time
	genLag  []sim.Time
}

// instance is one built world, ready to run once.
type instance struct {
	setup setupSplit
	run   func() (*outcome, error)
	// rerun marks an instance whose run may be repeated: each run builds
	// its own world from the instance's inputs (a replayed recording).
	rerun bool
}

// setupSplit is the wall time set-up spent per layer.
type setupSplit struct {
	simnet, core, madmpi time.Duration
}

// builder builds one world of a workload from its generated inputs.
type builder func(in instrument) (*instance, error)

// workload is one named benchmark workload at one scale.
type workload struct {
	name string
	// prepare draws the inputs from the seed once; the returned builder
	// can then build any number of identical worlds.
	prepare func(cfg config) (builder, error)
	// live, when set, builds the live run the workload's measured run is
	// derived from (ring-replay re-drives a recording of it); the
	// per-layer run instruments that live run.
	live func(cfg config) (builder, error)
	// collectives marks a workload whose ops are MAD-MPI collective
	// calls.
	collectives bool
}

// sample is one measured run of a built world.
type sample struct {
	split     setupSplit
	wall      time.Duration
	mallocs   uint64
	allocB    uint64
	heapLive  uint64
	out       *outcome
	runtimeGC rtDelta
}

// Set-up is timed over several builds of the same world, so that a
// set-up of a few tens of microseconds still gives a steady median:
// setupBuilds builds, or fewer once they have taken setupBudget.
const (
	setupBuilds = 50
	setupBudget = 100 * time.Millisecond
)

// measureOnce builds a world and runs it once.
func measureOnce(b builder, in instrument) (*sample, error) {
	inst, _, err := build(b, in)
	if err != nil {
		return nil, err
	}
	return runOnce(inst)
}

// build builds a world and times the set-up: the median of several
// builds, of which the last one is returned. A build spawns no
// processes, so the others are simply dropped.
func build(b builder, in instrument) (*instance, time.Duration, error) {
	runtime.GC()
	var (
		inst  *instance
		times []float64
		spent time.Duration
	)
	for len(times) == 0 || (len(times) < setupBuilds && spent < setupBudget) {
		t0 := time.Now()
		i, err := b(in)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		inst = i
	}
	return inst, time.Duration(median(times) * float64(time.Second)), nil
}

// runOnce runs a built world once, taking the wall-clock and
// allocation figures around the run only.
func runOnce(inst *instance) (*sample, error) {
	s := &sample{split: inst.setup}
	runtime.GC()
	var m0, m1 runtime.MemStats
	r0 := readRuntime()
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	out, err := inst.run()
	s.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	r1 := readRuntime()
	if err != nil {
		return nil, err
	}
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.runtimeGC = r1.sub(r0)
	// Heap in use with the finished world still reachable: out holds the
	// engines' stats and tracers, inst holds the world itself.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	s.heapLive = m2.HeapAlloc
	runtime.KeepAlive(inst)
	// Drop what only the heap figure needed, so samples kept for the
	// report do not weigh on the runs after them.
	for _, r := range out.tracers {
		out.events += r.Total()
	}
	out.tracers, out.rec, out.keep = nil, nil, nil
	s.out = out
	return s, nil
}

// builds hands out untraced built worlds for the repeated runs of one
// invocation and keeps their set-up times. A rerunnable instance is
// built setupSamples times on the first run, so that set-up still has
// its samples, and reused from then on: a costly set-up (ring-replay's
// live recording) is not paid on every run.
type builds struct {
	b      builder
	inst   *instance
	setups []float64
}

const setupSamples = 3

// measure runs a world once, building a new one unless the last one
// can be reused.
func (bs *builds) measure() (*sample, error) {
	if bs.inst == nil || !bs.inst.rerun {
		if err := bs.build(); err != nil {
			return nil, err
		}
		for bs.inst.rerun && len(bs.setups) < setupSamples {
			if err := bs.build(); err != nil {
				return nil, err
			}
		}
	}
	return runOnce(bs.inst)
}

func (bs *builds) build() error {
	inst, d, err := build(bs.b, instrument{})
	if err != nil {
		return err
	}
	bs.inst = inst
	bs.setups = append(bs.setups, d.Seconds())
	return nil
}

// rtDelta is a difference of runtime/metrics readings.
type rtDelta struct {
	wakeups  uint64  // goroutine scheduling latency samples
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // GC CPU seconds (runtime estimate)
	allCPU   float64 // total CPU seconds (runtime estimate)
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var d rtDelta
	if ss[0].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range ss[0].Value.Float64Histogram().Counts {
			d.wakeups += c
		}
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		d.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		d.allCPU = ss[3].Value.Float64()
	}
	return d
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{
		wakeups:  a.wakeups - b.wakeups,
		gcCycles: a.gcCycles - b.gcCycles,
		gcCPU:    a.gcCPU - b.gcCPU,
		allCPU:   a.allCPU - b.allCPU,
	}
}

// digest fingerprints everything about a run that must not depend on
// how it was observed: the virtual times and every engine counter. Two
// runs of one seed — traced, wrapped or plain — must agree on it.
func (o *outcome) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(o.ops))
	put(int64(o.failed))
	put(int64(o.makespan))
	put(o.payload)
	for _, xs := range [][]sim.Time{o.lat, o.prioLat, o.submitVT, o.jobWait, o.genLag} {
		put(int64(len(xs)))
		for _, x := range xs {
			put(int64(x))
		}
	}
	for _, s := range o.stats {
		fmt.Fprintf(h, "%+v\n", s)
	}
	fmt.Fprintf(h, "%+v %d\n", o.faults, o.txPkts)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// totals sums the per-node engine counters the metrics use.
type totals struct {
	submitted, packets, entries, aggregated, piggy int
	rdv, rdvDeferred, unexpected, reordered        int
	peakUnexpected, peakHeld, credits              int
	retransmits, dupAcks, reissues, protoErrors    int
	jobsAdm, jobsRej, jobsDisp, jobsAged, peakQ    int
	wire                                           int64
}

func sumStats(ss []core.Stats) totals {
	var t totals
	for _, s := range ss {
		t.submitted += s.Submitted
		t.packets += s.OutputPackets
		t.entries += s.EntriesSent
		t.aggregated += s.AggregatedPackets
		t.piggy += s.CtrlPiggybacked
		t.rdv += s.RdvStarted
		t.rdvDeferred += s.RdvDeferred
		t.unexpected += s.Unexpected
		t.reordered += s.Reordered
		t.peakUnexpected = max(t.peakUnexpected, s.PeakUnexpected)
		t.peakHeld = max(t.peakHeld, s.PeakHeld)
		t.credits += s.CreditsSent
		t.retransmits += s.Retransmits
		t.dupAcks += s.DupAcks
		t.reissues += s.BodyReissues
		t.protoErrors += s.ProtocolErrors
		t.jobsAdm += s.JobsAdmitted
		t.jobsRej += s.JobsRejected
		t.jobsDisp += s.JobsDispatched
		t.jobsAged += s.JobsAged
		t.peakQ = max(t.peakQ, s.PeakQueueDepth)
		t.wire += s.WireBytes
	}
	return t
}

// fabricCounters sums the fault injector and NIC counters of a fabric.
func fabricCounters(f *simnet.Fabric) (simnet.FaultStats, int) {
	var fs simnet.FaultStats
	pkts := 0
	for _, n := range f.Networks() {
		s := n.FaultStats()
		fs.Dropped += s.Dropped
		fs.OutageDropped += s.OutageDropped
		fs.Duplicated += s.Duplicated
		fs.Reordered += s.Reordered
		for id := 0; id < f.Nodes(); id++ {
			pkts += n.NIC(simnet.NodeID(id)).Stats().TxPackets
		}
	}
	return fs, pkts
}

// quantile returns the q-quantile (nearest rank) of xs; 0 for none.
func quantile(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantileF is quantile over float samples.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// median of float samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(t sim.Time) float64 { return t.Microseconds() }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
