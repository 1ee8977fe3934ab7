package main

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The ring workloads run the paper's §2 multiplexing mix on an N-node
// MX ring: every node streams rounds toward its successor and serves
// its predecessor's rounds. A round is a bulk stream, an 8-flow burst
// of small sends, a 32 B Priority() control message, one rendezvous
// transfer and a 1 KiB reply to the control message. Each direction is
// a closed loop: a node's next round starts once its previous one has
// completed.

const (
	ringBulk  = 8 // bulk chunks per round
	ringSmall = 8 // small flows per burst
	ringCtrl  = 32
	ringReply = 1 << 10
)

// Flow tags, as in the canonical composite workload.
const (
	bulkTag  = core.Tag(1)
	ctrlTag  = core.Tag(2)
	largeTag = core.Tag(3)
	replyTag = core.Tag(4)
	smallTag = core.Tag(16)
)

// msg is one planned message: its size and its payload window.
type msg struct{ size, off int }

type ringRound struct {
	bulk  [ringBulk]msg
	small [ringSmall]msg
	ctrl  msg
	large msg
	reply msg
}

// ringPlan is the generated input of a ring run.
type ringPlan struct {
	nodes  int
	rounds [][]ringRound // [node][round], toward the node's successor
	pay    *payloads
}

// ringOpsPerRound counts one node's application ops per round: the
// sender's sends and reply receive plus the receiver's receives and
// reply send.
const ringOpsPerRound = 2 * (ringBulk + ringSmall + 3)

func newRingPlan(seed uint64, nodes, rounds int, corrupt bool) *ringPlan {
	pl := &ringPlan{nodes: nodes, pay: newPayloads(seed, corrupt)}
	rng := sim.NewRNG(seed)
	draw := func(lo, hi int) msg {
		size := rng.Range(lo, hi)
		return msg{size: size, off: pl.pay.offset(rng, size)}
	}
	pl.rounds = make([][]ringRound, nodes)
	for n := range pl.rounds {
		pl.rounds[n] = make([]ringRound, rounds)
		for r := range pl.rounds[n] {
			rd := &pl.rounds[n][r]
			for k := range rd.bulk {
				rd.bulk[k] = draw(1<<10, 4<<10)
			}
			for k := range rd.small {
				rd.small[k] = draw(16, 256)
			}
			rd.ctrl = draw(ringCtrl, ringCtrl)
			rd.large = draw(32<<10, 64<<10)
			rd.reply = draw(ringReply, ringReply)
		}
	}
	return pl
}

func (pl *ringPlan) ops() int { return pl.nodes * len(pl.rounds[0]) * ringOpsPerRound }

// op logs one Isend/Irecv: issued at t0, completed at done, after
// spending submit inside the call. The simulator runs one process at a
// time, so every process of a run logs into its outcome directly.
func (o *outcome) op(t0, done, submit sim.Time, ok bool) {
	o.submitVT = append(o.submitVT, submit)
	o.call(t0, done, ok)
}

// call logs one blocking call made at t0 that returned at done.
func (o *outcome) call(t0, done sim.Time, ok bool) {
	o.lat = append(o.lat, done-t0)
	if done > o.makespan {
		o.makespan = done
	}
	if !ok {
		o.failed++
	}
}

// waiter stamps the completion instant of each request of a batch.
type waiter struct {
	sub []core.Request
	idx []int
}

// wait blocks until every request of reqs completed, storing each one's
// completion instant in done and its error in errs (same index).
func (wt *waiter) wait(p *sim.Proc, reqs []core.Request, done []sim.Time, errs []error) {
	wt.sub = append(wt.sub[:0], reqs...)
	wt.idx = wt.idx[:0]
	for i := range reqs {
		wt.idx = append(wt.idx, i)
	}
	for len(wt.sub) > 0 {
		i, err := core.WaitAny(p, wt.sub...)
		if i < 0 {
			// Nothing left to wait on can only mean a broken request set.
			for _, j := range wt.idx {
				done[j], errs[j] = p.Now(), err
			}
			return
		}
		j := wt.idx[i]
		done[j], errs[j] = p.Now(), err
		last := len(wt.sub) - 1
		wt.sub[i], wt.idx[i] = wt.sub[last], wt.idx[last]
		wt.sub, wt.idx = wt.sub[:last], wt.idx[:last]
	}
}

// ringRun is the state one ring run shares between its processes.
type ringRun struct {
	pl     *ringPlan
	o      *outcome
	ctrlAt [][]sim.Time // [node][round]: when the control send was issued
}

// spawn starts the ring's 2N processes on the engines of c.
func (pl *ringPlan) spawn(c *cluster, o *outcome) {
	rr := &ringRun{pl: pl, o: o, ctrlAt: make([][]sim.Time, pl.nodes)}
	for n := range rr.ctrlAt {
		rr.ctrlAt[n] = make([]sim.Time, len(pl.rounds[n]))
	}
	for i, e := range c.engines {
		next := simnet.NodeID((i + 1) % pl.nodes)
		prev := simnet.NodeID((i + pl.nodes - 1) % pl.nodes)
		spawn(c, fmt.Sprintf("ring-send%d", i), func(p *sim.Proc) { rr.send(p, i, e.Gate(next)) })
		spawn(c, fmt.Sprintf("ring-recv%d", i), func(p *sim.Proc) { rr.recv(p, int(prev), e.Gate(prev)) })
	}
}

// send drives node's rounds toward its successor behind g.
func (rr *ringRun) send(p *sim.Proc, node int, g *core.Gate) {
	pay := rr.pl.pay
	const n = ringBulk + ringSmall + 2
	var (
		reqs   = make([]core.Request, 0, n)
		t0     = make([]sim.Time, 0, n)
		sub    = make([]sim.Time, 0, n)
		done   = make([]sim.Time, n)
		errs   = make([]error, n)
		wt     waiter
		buf    = make([]byte, ringReply)
		ctrlAt = rr.ctrlAt[node]
	)
	isend := func(tag core.Tag, m msg, opts ...core.SendOption) {
		t := p.Now()
		reqs = append(reqs, g.Isend(p, tag, pay.send(m.off, m.size), opts...))
		t0 = append(t0, t)
		sub = append(sub, p.Now()-t)
	}
	for r := range rr.pl.rounds[node] {
		rd := &rr.pl.rounds[node][r]
		reqs, t0, sub = reqs[:0], t0[:0], sub[:0]
		for k := range rd.bulk {
			isend(bulkTag, rd.bulk[k])
			switch k {
			case ringBulk / 3:
				for j := range rd.small {
					isend(smallTag+core.Tag(j), rd.small[j])
				}
			case ringBulk / 2:
				ctrlAt[r] = p.Now()
				isend(ctrlTag, rd.ctrl, core.Priority())
				isend(largeTag, rd.large)
			}
		}
		wt.wait(p, reqs, done, errs)
		for i := range reqs {
			rr.o.op(t0[i], done[i], sub[i], errs[i] == nil)
		}
		t := p.Now()
		rq := g.Irecv(p, replyTag, buf[:rd.reply.size])
		s := p.Now() - t
		err := rq.Wait(p)
		ok := err == nil && rq.N() == rd.reply.size && pay.check(buf[:rq.N()], rd.reply.off)
		if ok {
			rr.o.payload += int64(rd.reply.size)
		}
		rr.o.op(t, p.Now(), s, ok)
	}
}

// recv serves the rounds of node prev behind g, answering each control
// message with the reply.
func (rr *ringRun) recv(p *sim.Proc, prev int, g *core.Gate) {
	pay := rr.pl.pay
	const n = ringBulk + ringSmall + 2
	var (
		reqs  = make([]core.Request, 0, n)
		msgs  = make([]msg, 0, n)
		bufs  = make([][]byte, 0, n)
		t0    = make([]sim.Time, 0, n)
		sub   = make([]sim.Time, 0, n)
		done  = make([]sim.Time, n)
		errs  = make([]error, n)
		wt    waiter
		space = make([]byte, ringBulk*(4<<10)+ringSmall*256+(64<<10))
		cbuf  = make([]byte, ringCtrl)
	)
	o := rr.o
	for r := range rr.pl.rounds[prev] {
		rd := &rr.pl.rounds[prev][r]
		reqs, msgs, bufs, t0, sub = reqs[:0], msgs[:0], bufs[:0], t0[:0], sub[:0]
		free := space
		irecv := func(tag core.Tag, m msg) {
			b := free[:m.size:m.size]
			free = free[m.size:]
			t := p.Now()
			reqs = append(reqs, g.Irecv(p, tag, b))
			t0 = append(t0, t)
			sub = append(sub, p.Now()-t)
			msgs = append(msgs, m)
			bufs = append(bufs, b)
		}
		tc := p.Now()
		ctrl := g.Irecv(p, ctrlTag, cbuf)
		sc := p.Now() - tc
		for k := range rd.bulk {
			irecv(bulkTag, rd.bulk[k])
		}
		for j := range rd.small {
			irecv(smallTag+core.Tag(j), rd.small[j])
		}
		irecv(largeTag, rd.large)
		err := ctrl.Wait(p)
		ctrlDone := p.Now()
		ok := err == nil && ctrl.N() == ringCtrl && pay.check(cbuf, rd.ctrl.off)
		rr.o.op(tc, ctrlDone, sc, ok)
		o.prioLat = append(o.prioLat, ctrlDone-rr.ctrlAt[prev][r])
		if ok {
			o.payload += ringCtrl
		}
		// The reply goes out as soon as the control message lands.
		t := p.Now()
		reqs = append(reqs, g.Isend(p, replyTag, pay.send(rd.reply.off, rd.reply.size)))
		t0 = append(t0, t)
		sub = append(sub, p.Now()-t)
		wt.wait(p, reqs, done, errs)
		for i := range reqs {
			ok := errs[i] == nil
			if i < len(msgs) {
				rq := reqs[i].(*core.RecvRequest)
				ok = ok && rq.N() == msgs[i].size && pay.check(bufs[i], msgs[i].off)
				if ok {
					o.payload += int64(msgs[i].size)
				}
			}
			rr.o.op(t0[i], done[i], sub[i], ok)
		}
	}
}

// buildRing returns the builder of a ring world running pl live.
func buildRing(pl *ringPlan) builder {
	return func(in instrument) (*instance, error) {
		c, err := newCluster(pl.nodes, nil, core.DefaultOptions(), in, false)
		if err != nil {
			return nil, err
		}
		return &instance{setup: c.setup, run: func() (*outcome, error) {
			o := &outcome{ops: pl.ops()}
			pl.pay.reset()
			pl.spawn(c, o)
			return finish(c, o)
		}}, nil
	}
}
