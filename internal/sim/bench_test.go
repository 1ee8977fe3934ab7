package sim

import "testing"

// The kernel microbenchmarks price one process switch in each of its
// three forms. Run them with
//
//	go test -run=NONE -bench=. -benchmem ./internal/sim
//
// BenchmarkSpawn: a process is spawned from an event, takes its first
// step and returns, once per op (the replay harness's per-op process).
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	w := NewWorld()
	noop := func(*Proc) {}
	n := 0
	var step func()
	step = func() {
		if n == b.N {
			return
		}
		n++
		w.Spawn("p", noop)
		w.After(1, step)
	}
	w.At(0, step)
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepResume: one process sleeps and is resumed by its timer,
// once per op.
func BenchmarkSleepResume(b *testing.B) {
	b.ReportAllocs()
	w := NewWorld()
	w.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondBroadcast: one process waits on a condition and an event
// broadcasts it awake, once per op (request completion).
func BenchmarkCondBroadcast(b *testing.B) {
	b.ReportAllocs()
	w := NewWorld()
	c := NewCond(w)
	w.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
	})
	var tick func()
	tick = func() {
		if c.Waiters() == 0 {
			return
		}
		c.Broadcast()
		w.After(1, tick)
	}
	w.At(1, tick)
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}
