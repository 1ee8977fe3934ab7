package main

import (
	"errors"
	"fmt"

	"nmad/internal/core"
	"nmad/internal/queue"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The incast-tenants workload: eight sender nodes push small eager
// messages to node 0 on an open-loop virtual schedule, and node 0
// drains them with one slow server process. At the same time node 0's
// job queue runs two tenants: a latency tenant sending RPCs to node 1
// at fixed intervals (open loop) and a bulk tenant sending jobs to the
// senders. The engines run strategy prio with credit flow control and
// a rendezvous grant cap.
//
// The offered rate sits near but below the drain's capacity: each
// sender's messages are due every incastGap on average, and the drain
// spends incastService on each, so the drain is busy
// incastSenders*incastService/incastGap = 80% of the time (plus the
// engine's receive-side costs), and the backlog does not grow.

const (
	incastSenders = 8
	incastNodes   = incastSenders + 2 // node 0 drains, node 1 serves RPCs
	incastGap     = 20 * sim.Microsecond
	incastService = 2 * sim.Microsecond
	rpcGap        = 25 * sim.Microsecond
	bulkGap       = 50 * sim.Microsecond
	rpcSize       = 128
)

// Flow tags. RPCs and bulk jobs each get their own flow so concurrent
// jobs cannot take each other's replies.
const (
	incastTag = core.Tag(5)
	rpcBase   = core.Tag(1) << 32
	replyBase = core.Tag(2) << 32
	jobBase   = core.Tag(3) << 32
	flowMask  = ^core.Tag(1<<32 - 1)
)

// due is one open-loop arrival: when it is due and what it carries.
type due struct {
	at sim.Time
	m  msg
}

// incastPlan is the generated input of an incast-tenants run.
type incastPlan struct {
	msgs  [incastSenders][]due // per sender, to node 0
	rpcs  []due                // latency tenant requests; replies reuse the sizes
	reply []msg
	bulk  []due // bulk tenant jobs, job k to sender k%incastSenders
	pay   *payloads
}

func newIncastPlan(seed uint64, perSender int, corrupt bool) *incastPlan {
	pl := &incastPlan{pay: newPayloads(seed, corrupt)}
	rng := sim.NewRNG(seed)
	draw := func(lo, hi int) msg {
		size := rng.Range(lo, hi)
		return msg{size: size, off: pl.pay.offset(rng, size)}
	}
	// Arrival k of a sender is due in [k, k+1) gaps: a jittered stream
	// of mean rate 1/incastGap that never bunches more than two deep.
	for s := range pl.msgs {
		pl.msgs[s] = make([]due, perSender)
		for k := range pl.msgs[s] {
			at := sim.Time(k)*incastGap + sim.Time(rng.Intn(int(incastGap)))
			pl.msgs[s][k] = due{at: at, m: draw(16, 512)}
		}
	}
	span := sim.Time(perSender) * incastGap
	for at := rpcGap / 2; at < span; at += rpcGap {
		pl.rpcs = append(pl.rpcs, due{at: at, m: draw(rpcSize, rpcSize)})
		pl.reply = append(pl.reply, draw(rpcSize, rpcSize))
	}
	for at := bulkGap / 3; at < span; at += bulkGap {
		j := sim.Time(rng.Intn(int(bulkGap / 2)))
		pl.bulk = append(pl.bulk, due{at: at + j, m: draw(4<<10, 16<<10)})
	}
	return pl
}

func (pl *incastPlan) ops() int {
	return incastSenders*len(pl.msgs[0]) + len(pl.rpcs) + len(pl.bulk)
}

func buildIncast(pl *incastPlan) builder {
	return func(in instrument) (*instance, error) {
		opts := core.DefaultOptions()
		opts.Strategy = "prio"
		opts.Credits = 16
		opts.MaxGrants = 4
		c, err := newCluster(incastNodes, nil, opts, in, false)
		if err != nil {
			return nil, err
		}
		q, err := queue.New(c.engines[0], queue.Config{Workers: 1, Tenants: []queue.TenantSpec{
			{Name: "latency", Weight: 1, Class: queue.ClassLatency},
			{Name: "bulk", Weight: 1, Class: queue.ClassBulk},
		}})
		if err != nil {
			return nil, err
		}
		return &instance{setup: c.setup, run: func() (*outcome, error) {
			o := &outcome{ops: pl.ops()}
			pl.pay.reset()
			pl.spawn(c, q, o)
			return finish(c, o)
		}}, nil
	}
}

func (pl *incastPlan) spawn(c *cluster, q *queue.Queue, o *outcome) {
	pay := pl.pay
	e0 := c.engines[0]
	sleepUntil := func(p *sim.Proc, at sim.Time) {
		if d := at - p.Now(); d > 0 {
			p.Sleep(d)
		}
		o.genLag = append(o.genLag, p.Now()-at)
	}

	// Senders: open-loop streams toward node 0.
	for s := range pl.msgs {
		g := c.engines[s+2].Gate(0)
		spawn(c, fmt.Sprintf("incast-send%d", s), func(p *sim.Proc) {
			reqs := make([]core.Request, 0, len(pl.msgs[s]))
			for _, d := range pl.msgs[s] {
				sleepUntil(p, d.at)
				t := p.Now()
				reqs = append(reqs, g.Isend(p, incastTag, pay.send(d.m.off, d.m.size)))
				o.submitVT = append(o.submitVT, p.Now()-t)
			}
			// A failed send never reaches the drain, which then blocks:
			// the run fails as a whole.
			_ = core.WaitAll(p, reqs...)
		})
	}

	// Drain: one slow server taking messages from any sender.
	spawn(c, "incast-drain", func(p *sim.Proc) {
		var (
			reqs = make([]core.Request, incastSenders)
			bufs = make([][]byte, incastSenders)
			next = make([]int, incastSenders)
			live = incastSenders
		)
		post := func(s int) {
			if next[s] == len(pl.msgs[s]) {
				reqs[s] = nil
				live--
				return
			}
			size := pl.msgs[s][next[s]].m.size
			reqs[s] = e0.Gate(simnet.NodeID(s+2)).Irecv(p, incastTag, bufs[s][:size])
		}
		for s := range reqs {
			bufs[s] = make([]byte, 512)
			post(s)
		}
		sub := make([]core.Request, 0, incastSenders)
		who := make([]int, 0, incastSenders)
		for live > 0 {
			sub, who = sub[:0], who[:0]
			for s, r := range reqs {
				if r != nil {
					sub, who = append(sub, r), append(who, s)
				}
			}
			i, err := core.WaitAny(p, sub...)
			s := who[i]
			d := pl.msgs[s][next[s]]
			rq := reqs[s].(*core.RecvRequest)
			ok := err == nil && rq.N() == d.m.size && pay.check(bufs[s][:rq.N()], d.m.off)
			if ok {
				o.payload += int64(d.m.size)
			}
			o.call(d.at, p.Now(), ok)
			p.Sleep(incastService)
			next[s]++
			post(s)
		}
	})

	// RPC server on node 1: answers each request on its own reply flow.
	spawn(c, "rpc-server", func(p *sim.Proc) {
		g := c.engines[1].Gate(0)
		buf := make([]byte, rpcSize)
		for range pl.rpcs {
			rq := g.IrecvMasked(p, rpcBase, flowMask, buf)
			if err := rq.Wait(p); err != nil {
				return
			}
			k := int(rq.Tag() - rpcBase)
			if k < 0 || k >= len(pl.rpcs) || !pay.check(buf[:rq.N()], pl.rpcs[k].m.off) {
				// A request that cannot be identified cannot be answered:
				// its job blocks and the run fails as a whole.
				continue
			}
			r := pl.reply[k]
			_ = g.Send(p, replyBase+core.Tag(k), pay.send(r.off, r.size))
		}
	})

	// Bulk receivers on the senders.
	for s := 0; s < incastSenders; s++ {
		g := c.engines[s+2].Gate(0)
		spawn(c, fmt.Sprintf("bulk-recv%d", s), func(p *sim.Proc) {
			buf := make([]byte, 16<<10)
			for k := s; k < len(pl.bulk); k += incastSenders {
				m := pl.bulk[k].m
				n, err := g.Recv(p, jobBase+core.Tag(k), buf[:m.size])
				if err != nil || n != m.size || !pay.check(buf[:n], m.off) {
					o.failed++
					continue
				}
				o.payload += int64(n)
			}
		})
	}

	// Tenant generators and job bodies. The jobs' own stamps give their
	// latency and queue wait once the run is over.
	lat, _ := q.Tenant("latency")
	bulk, _ := q.Tenant("bulk")
	type submitted struct {
		job  *queue.Job
		due  sim.Time
		prio bool
	}
	var jobs []submitted
	submit := func(p *sim.Proc, t *queue.Tenant, d sim.Time, fn func(p *sim.Proc) error) {
		j, err := q.Submit(t.Name(), t.Name(), fn)
		if err != nil {
			o.call(d, p.Now(), false)
			return
		}
		jobs = append(jobs, submitted{j, d, t == lat})
	}
	spawn(c, "rpc-gen", func(p *sim.Proc) {
		g := e0.Gate(1)
		for k, d := range pl.rpcs {
			sleepUntil(p, d.at)
			buf := make([]byte, rpcSize)
			submit(p, lat, d.at, func(p *sim.Proc) error {
				s := g.Isend(p, rpcBase+core.Tag(k), pay.send(d.m.off, d.m.size), lat.SendOptions()...)
				r := g.Irecv(p, replyBase+core.Tag(k), buf)
				if err := core.WaitAll(p, s, r); err != nil {
					return err
				}
				if r.N() != pl.reply[k].size || !pay.check(buf[:r.N()], pl.reply[k].off) {
					return errMismatch
				}
				o.payload += int64(d.m.size + r.N())
				return nil
			})
		}
	})
	spawn(c, "bulk-gen", func(p *sim.Proc) {
		for k, d := range pl.bulk {
			sleepUntil(p, d.at)
			g := e0.Gate(simnet.NodeID(2 + k%incastSenders))
			submit(p, bulk, d.at, func(p *sim.Proc) error {
				return g.Isend(p, jobBase+core.Tag(k), pay.send(d.m.off, d.m.size), bulk.SendOptions()...).Wait(p)
			})
		}
	})
	c.after = func() {
		for _, j := range jobs {
			o.call(j.due, j.job.Completed(), j.job.Done() && j.job.Err() == nil)
			o.jobWait = append(o.jobWait, j.job.Dispatched()-j.job.Submitted())
			if j.prio {
				o.prioLat = append(o.prioLat, j.job.Completed()-j.due)
			}
		}
	}
}

// errMismatch reports a payload that did not arrive as sent.
var errMismatch = errors.New("payload mismatch")
