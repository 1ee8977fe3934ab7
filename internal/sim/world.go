package sim

import (
	"fmt"
	"sort"
)

// World owns the virtual clock, the event queue and every process spawned
// into the simulation. A World is single-threaded by construction: each
// process runs on a coroutine (iter.Pull), and control passes between the
// scheduler loop in Run and one process at a time by a direct coroutine
// switch — the process runs until it blocks or returns, then the
// scheduler picks up where it left off. No locking is needed anywhere
// above the kernel.
type World struct {
	now   Time
	queue eventQueue
	seq   uint64

	cur  *Proc   // process currently executing, nil in scheduler context
	idle []*coro // coroutines whose process returned, ready for reuse

	live    int     // spawned processes that have not finished
	waiting []*Proc // processes blocked on a Cond (for deadlock reports)

	stopped bool
	limit   Time // RunUntil horizon; 0 = none
}

// NewWorld returns an empty world with the clock at zero.
func NewWorld() *World { return &World{} }

// unwait removes p from the blocked-process registry (swap-remove: the
// registry is a set kept as a slice so wait/wake cycles on the request
// hot path stay allocation-free; order is irrelevant — deadlock reports
// sort by name).
func (w *World) unwait(p *Proc) {
	i := p.waitIdx
	if i < 0 {
		return
	}
	last := len(w.waiting) - 1
	moved := w.waiting[last]
	w.waiting[i] = moved
	moved.waitIdx = i
	w.waiting[last] = nil
	w.waiting = w.waiting[:last]
	p.waitIdx = -1
}

// Now reports the current virtual time.
func (w *World) Now() Time { return w.now }

// At schedules fn to run at virtual time t (clamped to now if in the past).
// fn runs in scheduler context: it may schedule further events, signal
// conditions and complete requests, but it must not block.
func (w *World) At(t Time, fn func()) { w.schedule(t, event{fn: fn}) }

// resumeAt schedules the next step of p at virtual time t (clamped to
// now, like At).
func (w *World) resumeAt(t Time, p *Proc) { w.schedule(t, event{p: p}) }

func (w *World) schedule(t Time, ev event) {
	if t < w.now {
		t = w.now
	}
	w.seq++
	ev.at, ev.seq = t, w.seq
	w.queue.push(ev)
}

// After schedules fn to run d from now. Negative d means now.
func (w *World) After(d Time, fn func()) { w.At(w.now+d, fn) }

// Stop makes Run return after the event currently firing.
func (w *World) Stop() { w.stopped = true }

// DeadlockError reports that every live process is blocked with no event
// left that could wake any of them.
type DeadlockError struct {
	Now     Time
	Blocked []string // names of the blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked forever: %v",
		e.Now, len(e.Blocked), e.Blocked)
}

// Run drives the simulation until the event queue drains, Stop is called,
// or the horizon set by RunUntil passes. It returns a *DeadlockError if
// processes remain blocked when no event can ever wake them, nil otherwise.
// A panic inside a process propagates out of Run. Once the queue drains,
// the idle coroutines are stopped, so a finished world leaves no
// goroutine behind.
func (w *World) Run() error {
	w.stopped = false
	for !w.stopped && w.queue.len() > 0 {
		if w.limit > 0 && w.queue.peek().at > w.limit {
			// Past the horizon: leave the event unfired for a later Run.
			w.now = w.limit
			return nil
		}
		ev := w.queue.pop()
		w.now = ev.at
		if ev.p != nil {
			w.runProc(ev.p)
		} else {
			ev.fn()
		}
	}
	if w.queue.len() > 0 {
		return nil
	}
	for i, c := range w.idle {
		c.stop()
		w.idle[i] = nil
	}
	w.idle = w.idle[:0]
	if w.live > 0 {
		return w.deadlock()
	}
	return nil
}

// RunUntil drives the simulation, stopping once the clock would pass t.
// Events scheduled later than t stay queued for a subsequent Run/RunUntil.
func (w *World) RunUntil(t Time) error {
	w.limit = t
	defer func() { w.limit = 0 }()
	return w.Run()
}

func (w *World) deadlock() error {
	names := make([]string, 0, len(w.waiting))
	for _, p := range w.waiting {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return &DeadlockError{Now: w.now, Blocked: names}
}

// Live reports how many spawned processes have not yet finished.
func (w *World) Live() int { return w.live }

// runProc transfers control to p until it blocks or finishes. A process
// taking its first step gets an idle coroutine, or a new one when none
// is idle. Must be called from scheduler context only (i.e. from inside
// an event).
func (w *World) runProc(p *Proc) {
	if w.cur != nil {
		panic("sim: runProc while another process is running")
	}
	c := p.co
	if c == nil {
		if n := len(w.idle); n > 0 {
			c = w.idle[n-1]
			w.idle[n-1] = nil
			w.idle = w.idle[:n-1]
		} else {
			c = w.newCoro()
		}
		c.p, p.co = p, c
	}
	w.cur = p
	c.next()
	w.cur = nil
}
