package sim

import "iter"

// Proc is a cooperative simulated process. Application-level code (MPI
// ranks, benchmark drivers, example programs) runs inside processes so it
// can block — on time with Sleep, or on state with Cond.Wait — while the
// engine underneath runs in event callbacks.
//
// Exactly one process executes at a time; a process runs until it blocks
// or returns, so plain Go code inside a process needs no synchronization.
type Proc struct {
	w    *World
	name string
	fn   func(p *Proc) // body, cleared once it has returned
	co   *coro         // the coroutine hosting the process from its first step
	// waitIdx is the process's slot in World.waiting while blocked on a
	// Cond, -1 otherwise (see Cond.Wait / World.unwait).
	waitIdx int
}

// coro is one iter.Pull coroutine. It runs processes one after another:
// when a process returns, the coroutine parks itself on its world's idle
// list and the next process to take its first step reuses it, so the
// coroutine's allocations are paid only up to the peak number of
// processes alive at once.
type coro struct {
	p     *Proc // the process being run; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Spawn creates a process executing fn and schedules its first step at the
// current virtual time. fn receives the process itself for blocking calls.
func (w *World) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{w: w, name: name, fn: fn, waitIdx: -1}
	w.live++
	w.resumeAt(w.now, p)
	return p
}

// newCoro starts a coroutine whose body runs c.p, parks on the idle
// list, and runs the next process it is handed, until stopped.
func (w *World) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			p.fn(p)
			p.fn, p.co, c.p = nil, nil, nil
			w.live--
			w.idle = append(w.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// Name returns the name given at Spawn time (used in deadlock reports).
func (p *Proc) Name() string { return p.name }

// World returns the world the process lives in.
func (p *Proc) World() *World { return p.w }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.w.now }

// Sleep blocks the process for d of virtual time. Sleep(0) yields: every
// event already scheduled for the current instant fires before the process
// resumes.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.w.resumeAt(p.w.now+d, p)
	p.block()
}

// block parks the process and returns control to the scheduler. Something
// must eventually resume it (a timer event, or a Cond wake) or the
// process is dead; the kernel then reports a deadlock.
func (p *Proc) block() {
	if p.w.cur != p {
		panic("sim: blocking call from the wrong context (process " + p.name + " is not running)")
	}
	p.co.yield(struct{}{})
}
