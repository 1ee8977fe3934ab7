package sim

// Cond is a condition variable for simulated processes. As with sync.Cond,
// waiters must re-check their predicate in a loop:
//
//	for !req.done {
//		cond.Wait(p)
//	}
//
// Broadcast may be called from scheduler context (event callbacks — e.g.
// a NIC completion that finishes a request) or from another process;
// wakeups are delivered as immediate events, preserving the
// one-runnable-at-a-time invariant.
type Cond struct {
	w       *World
	waiters []*Proc
}

// NewCond returns a condition variable bound to w.
func NewCond(w *World) *Cond { return &Cond{w: w} }

// Wait blocks p until a Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.waitIdx = len(c.w.waiting)
	c.w.waiting = append(c.w.waiting, p)
	p.block()
}

// Broadcast wakes every waiting process. The waiter list's backing array
// is kept for the next Wait: wake only schedules events (nothing re-
// enters Wait synchronously), so clearing in place is safe — and the
// wait/broadcast churn of request completion stops allocating once the
// list has seen its high-water mark.
func (c *Cond) Broadcast() {
	ws := c.waiters
	for i, p := range ws {
		c.wake(p)
		ws[i] = nil
	}
	c.waiters = ws[:0]
}

func (c *Cond) wake(p *Proc) {
	c.w.unwait(p)
	c.w.resumeAt(c.w.now, p)
}

// Waiters reports how many processes are currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
