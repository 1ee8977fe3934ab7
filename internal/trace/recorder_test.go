package trace

import (
	"runtime"
	"testing"

	"nmad/internal/sim"
)

// kindOf spreads events over three kinds so Count and Filter have work.
func kindOf(i int) Kind { return []Kind{Submit, Elect, Depart}[i%3] }

// The unbounded recorder's growing blocks are invisible to its readers:
// every prefix length across the 64, 128, ..., 4096 block boundaries
// reads back complete and in order.
func TestRecorderAcrossBlockBoundaries(t *testing.T) {
	r := NewRecorder()
	check := func(n int) {
		t.Helper()
		if r.Total() != n {
			t.Fatalf("Total = %d after %d events", r.Total(), n)
		}
		evs := r.Events()
		if len(evs) != n {
			t.Fatalf("Events returned %d of %d", len(evs), n)
		}
		for i, ev := range evs {
			if ev.At != sim.Time(i) || ev.Kind != kindOf(i) {
				t.Fatalf("after %d events, Events()[%d] = %v, want event %d", n, i, ev, i)
			}
		}
		for k := Kind(0); k < 3; k++ {
			want := (n + 2 - int(k)) / 3
			if r.Count(k) != want {
				t.Fatalf("after %d events, Count(%v) = %d, want %d", n, k, r.Count(k), want)
			}
			got := r.Filter(k)
			if len(got) != want {
				t.Fatalf("after %d events, Filter(%v) kept %d, want %d", n, k, len(got), want)
			}
			for j, ev := range got {
				if ev.At != sim.Time(3*j+int(k)) {
					t.Fatalf("after %d events, Filter(%v)[%d].At = %v", n, k, j, ev.At)
				}
			}
		}
	}
	// Check on both sides of every boundary between blocks.
	checkAt := map[int]bool{1: true, 10_000: true}
	for cum, size := 0, recorderFirstBlock; cum < 10_000; size = min(2*size, recorderBlock) {
		cum += size
		checkAt[cum], checkAt[cum+1] = true, true
	}
	for i := 0; i < 10_000; i++ {
		r.Record(Event{At: sim.Time(i), Kind: kindOf(i), Peer: -1, Rail: -1})
		if checkAt[i+1] {
			check(i + 1)
		}
	}
	if n := len(r.blocks); n < 4 {
		t.Errorf("10,000 events in %d blocks; the growth steps were not crossed", n)
	}
	for i, b := range r.blocks[:len(r.blocks)-1] {
		want := min(recorderFirstBlock<<i, recorderBlock)
		if cap(b) != want || len(b) != want {
			t.Errorf("block %d holds %d of %d, want a full block of %d", i, len(b), cap(b), want)
		}
	}
}

// Ring mode keeps its fixed-size buffer: the most recent limit events,
// in order, with counters covering everything.
func TestRingRecorderUnchanged(t *testing.T) {
	r := NewRingRecorder(100)
	for i := 0; i < 1000; i++ {
		r.Record(Event{At: sim.Time(i), Kind: kindOf(i)})
	}
	if r.Total() != 1000 || r.Count(Submit) != 334 {
		t.Errorf("Total %d, Count(Submit) %d; want 1000 and 334", r.Total(), r.Count(Submit))
	}
	evs := r.Events()
	if len(evs) != 100 {
		t.Fatalf("retained %d, want 100", len(evs))
	}
	for i, ev := range evs {
		if ev.At != sim.Time(900+i) {
			t.Fatalf("retained[%d].At = %v, want %d", i, ev.At, 900+i)
		}
	}
	if r.blocks != nil || len(r.events) != 100 {
		t.Errorf("ring mode used %d blocks and holds %d events; want none and 100", len(r.blocks), len(r.events))
	}
}

// A short recording pays for the events it holds, not for a whole
// recorderBlock: a node of a large cluster records a few hundred events.
// 300 events fill the 64- and 128-event blocks and part of the
// 256-event one: 448 slots of 80 B (37.5 KiB measured with the
// recorder itself), where a single 4096-event block is 320 KiB.
func TestRecorderShortRunAllocatesLittle(t *testing.T) {
	const runs = 20 // averaged, so stray allocations elsewhere wash out
	rs := make([]*Recorder, runs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := range rs {
		rs[k] = NewRecorder()
		for i := 0; i < 300; i++ {
			rs[k].Record(Event{At: sim.Time(i), Kind: Submit})
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rs)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 40<<10 {
		t.Errorf("recording 300 events allocated %d B, want under 40 KiB", got)
	}
}
