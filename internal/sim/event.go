package sim

// event is a callback, or the next step of a process, scheduled at a
// virtual instant. Events with equal times fire in scheduling order (seq
// is the tiebreak), which keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc // when non-nil, the event resumes p instead of calling fn
}

// eventQueue is a min-heap of events ordered by (at, seq), stored by
// value. The hand-rolled sift loops avoid the interface boxing and the
// per-event pointer allocation of container/heap — at emulation scale
// (1024 nodes keep hundreds of thousands of events in flight per run)
// the queue is the hottest data structure in the tree, and keeping it a
// flat []event makes push/pop allocation-free apart from the slice's
// amortized growth.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push inserts ev and sifts it up to its heap position.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// peek returns the earliest event without removing it. The queue must
// not be empty.
func (q eventQueue) peek() event { return q[0] }

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for the collector
	h = h[:n]
	*q = h
	// Sift the displaced tail element down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return ev
}

func (q eventQueue) len() int { return len(q) }
