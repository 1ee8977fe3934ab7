package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/sched"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small runs every workload at its test scale: one measured repetition
// (or pass), no time budget.
func small(seed uint64) config {
	return config{seed: seed, scale: smallScale, minReps: 2, maxReps: 2}
}

// checkMetrics asserts res carries exactly the listed metrics with
// their units.
func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func vtValues(res *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "vt_") {
			out[name] = m.Value
		}
	}
	return out
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not registered", w.Name)
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			wl := workloads[name]
			a, err := endToEnd(wl, small(1))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, a, s.EndToEnd)
			if !a.Correct || a.Failed != 0 || a.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d", a.Correct, a.Failed, a.Attempted)
			}
			for name, m := range a.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			b, err := endToEnd(wl, small(1))
			if err != nil {
				t.Fatal(err)
			}
			va, vb := vtValues(a), vtValues(b)
			for name, v := range va {
				if vb[name] != v {
					t.Errorf("%s: %v then %v on the same seed", name, v, vb[name])
				}
			}
		})
	}
}

func TestWorkloadsPerLayer(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := layerRun(workloads[name], small(1))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, s.PerLayer)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if res.Metrics["error_rate"].Value != 0 {
				t.Errorf("error_rate = %v", res.Metrics["error_rate"].Value)
			}
			if res.Metrics["trace.events_per_op"].Value <= 0 || res.Metrics["sched.elect_calls_per_op"].Value <= 0 {
				t.Errorf("traced or wrapped run saw nothing: %+v", res.Metrics)
			}
		})
	}
}

// The negative control: one damaged payload (or, for the allreduce,
// one wrong contribution) must show up as failed ops.
func TestCorruptionRaisesErrorRate(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := small(1)
			cfg.corrupt = true
			res, err := endToEnd(workloads[name], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Errorf("corrupted run: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// Observing a run must not change it: traced, wrapped and recorded
// builds of the same inputs produce the plain run's virtual results and
// engine counters.
func TestInstrumentsKeepTheSchedule(t *testing.T) {
	for _, name := range workloadNames() {
		wl := workloads[name]
		b, err := wl.prepare(small(3))
		if err != nil {
			t.Fatal(err)
		}
		if wl.live != nil {
			if b, err = wl.live(small(3)); err != nil {
				t.Fatal(err)
			}
		}
		var ref string
		for _, in := range []instrument{{}, {tracer: true}, {wrap: true}, {record: true}} {
			s, err := measureOnce(b, in)
			if err != nil {
				t.Fatal(err)
			}
			if s.out.failed != 0 {
				t.Errorf("%s %+v: %d failed", name, in, s.out.failed)
			}
			d := s.out.digest()
			if ref == "" {
				ref = d
			} else if d != ref {
				t.Errorf("%s: %+v changed the virtual results", name, in)
			}
		}
	}
}

// ring-replay builds its set-up samples on the first run, then replays
// the last recording again; each replay must still match the live run.
// The other workloads build a fresh world for every run.
func TestReplayReusesItsRecording(t *testing.T) {
	const runs = setupSamples + 2
	for _, name := range []string{"ring-replay", "ring-composite"} {
		b, err := workloads[name].prepare(small(1))
		if err != nil {
			t.Fatal(err)
		}
		bs := &builds{b: b}
		var tl tally
		for range runs {
			s, err := bs.measure()
			if err != nil {
				t.Fatal(err)
			}
			tl.add(s.out)
		}
		want := runs
		if name == "ring-replay" {
			want = setupSamples
		}
		if len(bs.setups) != want {
			t.Errorf("%s: %d builds in %d runs, want %d", name, len(bs.setups), runs, want)
		}
		if tl.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, tl.failed, tl.attempted)
		}
	}
}

// A seed not used while the benchmark was written must give valid
// inputs that pass every check, and different virtual results.
func TestSecondSeed(t *testing.T) {
	const fresh = 0x2f6c_91d3_55e0_a417
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, err := endToEnd(workloads[name], small(1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := endToEnd(workloads[name], small(fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !b.Correct || b.Failed != 0 {
				t.Fatalf("seed %#x: correct=%v failed=%d", uint64(fresh), b.Correct, b.Failed)
			}
			va, vb := vtValues(a), vtValues(b)
			same := 0
			for name, v := range va {
				if vb[name] == v {
					same++
				}
			}
			if same == len(va) {
				t.Errorf("seed %#x gave the same virtual results as seed 1: %v", uint64(fresh), va)
			}
		})
	}
}

// fakeStrategy is a bare strategy; combo adds optional interfaces to it.
type fakeStrategy struct{}

func (fakeStrategy) Name() string                                       { return "fake" }
func (fakeStrategy) Elect(sched.Window, sched.RailInfo) *sched.Election { return nil }

type fakeBP struct{}

func (fakeBP) PlanBody([]sched.RailInfo, int) []sched.BodyShare { return nil }

type fakeAt struct{}

func (fakeAt) OnAttach(sched.RailInfo) {}

type fakeCo struct{}

func (fakeCo) OnComplete(sched.Completion) {}

func optional(s sched.Strategy) [3]bool {
	_, bp := s.(sched.BodyPlanner)
	_, at := s.(sched.Attacher)
	_, co := s.(sched.Completer)
	return [3]bool{bp, at, co}
}

func TestWrapperExposesExactlyTheInnerInterfaces(t *testing.T) {
	var inners []sched.Strategy
	for _, n := range sched.Names() {
		s, err := sched.New(n)
		if err != nil {
			t.Fatal(err)
		}
		inners = append(inners, s)
	}
	for mask := 0; mask < 8; mask++ {
		inners = append(inners, combo(mask))
	}
	for _, in := range inners {
		w := wrapStrategy(in, &electTimer{})
		if w.Name() != in.Name() {
			t.Errorf("wrapper of %s is named %s", in.Name(), w.Name())
		}
		if optional(w) != optional(in) {
			t.Errorf("%s %T: wrapper exposes %v, inner %v", in.Name(), in, optional(w), optional(in))
		}
	}
}

// combo returns a strategy implementing the optional interfaces the
// bits of mask select (1 BodyPlanner, 2 Attacher, 4 Completer).
func combo(mask int) sched.Strategy {
	f, bp, at, co := fakeStrategy{}, fakeBP{}, fakeAt{}, fakeCo{}
	switch mask {
	case 1:
		return struct {
			fakeStrategy
			fakeBP
		}{f, bp}
	case 2:
		return struct {
			fakeStrategy
			fakeAt
		}{f, at}
	case 3:
		return struct {
			fakeStrategy
			fakeBP
			fakeAt
		}{f, bp, at}
	case 4:
		return struct {
			fakeStrategy
			fakeCo
		}{f, co}
	case 5:
		return struct {
			fakeStrategy
			fakeBP
			fakeCo
		}{f, bp, co}
	case 6:
		return struct {
			fakeStrategy
			fakeAt
			fakeCo
		}{f, at, co}
	case 7:
		return struct {
			fakeStrategy
			fakeBP
			fakeAt
			fakeCo
		}{f, bp, at, co}
	default:
		return f
	}
}

// The wrapper must be built per engine: prio keeps per-engine state.
func TestWrapperIsPerEngine(t *testing.T) {
	in := instrument{wrap: true}
	a, _, err := engineOptions(core.Options{Strategy: "prio"}, in, &electTimer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := engineOptions(core.Options{Strategy: "prio"}, in, &electTimer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.StrategyImpl == b.StrategyImpl {
		t.Error("two engines share one wrapped strategy instance")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--workload", "ring-composite", "--trace", "2"}, &out, &errb); code == 0 {
		t.Error("--trace 2 accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result on bad arguments: %q", out.String())
	}
}

// The incast's offered rate must sit below the drain's capacity: at
// full scale the generators never run late and message latency does
// not grow over the run.
func TestIncastBacklogDoesNotGrow(t *testing.T) {
	pl := newIncastPlan(1, fullScale.incastPerSender, false)
	s, err := measureOnce(buildIncast(pl), instrument{})
	if err != nil {
		t.Fatal(err)
	}
	o := s.out
	if o.failed != 0 {
		t.Fatalf("%d failed", o.failed)
	}
	if lag := quantile(o.genLag, 0.99); lag != 0 {
		t.Errorf("generator lag p99 = %v, want 0", lag)
	}
	// The drain logs the incast messages first, in the order it served
	// them.
	msgs := o.lat[:incastSenders*fullScale.incastPerSender]
	q := len(msgs) / 4
	first, last := mean(msgs[:q]), mean(msgs[len(msgs)-q:])
	t.Logf("incast latency: first quarter %.2fus, last quarter %.2fus", first, last)
	if last > 1.5*first {
		t.Errorf("backlog grows: mean latency %.2fus in the first quarter, %.2fus in the last", first, last)
	}
}

func mean(xs []sim.Time) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += us(x)
	}
	return sum / float64(len(xs))
}
