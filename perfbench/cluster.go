package main

import (
	"time"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// cluster is a built fabric with one engine per node.
type cluster struct {
	world   *sim.World
	fabric  *simnet.Fabric
	engines []*core.Engine
	tracers []*trace.Recorder
	elect   *electTimer
	rec     *trace.Recording
	ranks   []*madmpi.MPI
	setup   setupSplit
	// panicked is set when a process of the workload panicked.
	panicked bool
	// after, when set, runs once the world has run to completion, to
	// log what only the finished world knows.
	after func()
}

// spawn starts a workload process that cannot take the benchmark down:
// a panic is caught, recorded and fails the whole run.
func spawn(c *cluster, name string, fn func(p *sim.Proc)) {
	c.world.Spawn(name, func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				c.panicked = true
			}
		}()
		fn(p)
	})
}

// finish runs the world to completion and fills o. A deadlock, an
// error from the simulator or a panic anywhere fails every op of the
// run; so does an op that never reported.
func finish(c *cluster, o *outcome) (out *outcome, err error) {
	defer func() {
		if recover() != nil {
			c.panicked = true
		}
		if err == nil && !c.panicked && c.after != nil {
			c.after()
		}
		if c.panicked || err != nil || len(o.lat) != o.ops {
			o.failed = o.ops
		}
		c.collect(o)
		out, err = o, nil
	}()
	return o, c.world.Run()
}

// newCluster builds an MX fabric of n nodes (lossy when faults is
// non-nil) and one engine per node with opts under in. With mpi set,
// every node is a MAD-MPI rank whose Init builds the engine.
func newCluster(n int, faults *simnet.FaultProfile, opts core.Options, in instrument, mpi bool) (*cluster, error) {
	c := &cluster{elect: &electTimer{}}
	t0 := time.Now()
	c.world = sim.NewWorld()
	c.fabric = simnet.NewFabric(c.world, n, simnet.DefaultHost())
	if _, err := c.fabric.AddNetwork(simnet.MX10G()); err != nil {
		return nil, err
	}
	if faults != nil {
		if err := c.fabric.SetFaults(*faults); err != nil {
			return nil, err
		}
	}
	c.setup.simnet = time.Since(t0)
	t1 := time.Now()
	if in.record {
		c.rec = trace.NewRecording()
	}
	c.engines = make([]*core.Engine, n)
	for i := range c.engines {
		o, tr, err := engineOptions(opts, in, c.elect, c.rec)
		if err != nil {
			return nil, err
		}
		if mpi {
			m, err := madmpi.Init(c.fabric, simnet.NodeID(i), o)
			if err != nil {
				return nil, err
			}
			c.ranks = append(c.ranks, m)
			c.engines[i] = m.Engine()
		} else {
			e, err := core.New(c.fabric, simnet.NodeID(i), o)
			if err != nil {
				return nil, err
			}
			if err := e.AttachFabric(c.fabric); err != nil {
				return nil, err
			}
			c.engines[i] = e
		}
		if tr != nil {
			c.tracers = append(c.tracers, tr)
		}
	}
	if mpi {
		c.setup.madmpi = time.Since(t1)
	} else {
		c.setup.core = time.Since(t1)
	}
	return c, nil
}

// collect fills the counters of o from the finished cluster.
func (c *cluster) collect(o *outcome) {
	o.stats = make([]core.Stats, len(c.engines))
	for i, e := range c.engines {
		o.stats[i] = e.Stats()
	}
	o.faults, o.txPkts = fabricCounters(c.fabric)
	o.tracers = c.tracers
	o.rec = c.rec
	o.elect = c.elect
}
