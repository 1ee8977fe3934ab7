package main

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The allreduce workload: MAD-MPI ranks run closed-loop rounds of a
// latency-bound Allreduce of arSmall float64, a pipelined-ring
// Allreduce of a large vector, then a Barrier, on an MX rail that drops
// packets (seeded) under link-layer reliability. Every reduction result
// is checked element-exact: the inputs are small integers, so every
// summation order gives the same float64.

const (
	arSmall   = 8
	arValues  = 1 << 16 // seeded value pool the inputs are cut from
	arDropPct = 1
)

// arPlan is the generated input of an allreduce run.
type arPlan struct {
	ranks, rounds, large int
	faultSeed            uint64
	pool                 []float64
	// corrupt makes rank 0 contribute one wrong value in the first
	// round: the negative control of the checks.
	corrupt bool
	// off[round][rank] is where a rank's small and large inputs start
	// in the pool; want[round] are the expected sums.
	off                  [][]int
	wantSmall, wantLarge [][]float64
}

func newARPlan(seed uint64, ranks, rounds, large int, corrupt bool) *arPlan {
	rng := sim.NewRNG(seed)
	pl := &arPlan{ranks: ranks, rounds: rounds, large: large, faultSeed: rng.Uint64(), corrupt: corrupt}
	pl.pool = make([]float64, arValues)
	for i := range pl.pool {
		pl.pool[i] = float64(rng.Range(-64, 64))
	}
	pl.off = make([][]int, rounds)
	pl.wantSmall = make([][]float64, rounds)
	pl.wantLarge = make([][]float64, rounds)
	for r := range pl.off {
		pl.off[r] = make([]int, ranks)
		ws, wl := make([]float64, arSmall), make([]float64, large)
		for k := range pl.off[r] {
			o := rng.Intn(arValues)
			pl.off[r][k] = o
			for i := range ws {
				ws[i] += pl.value(o, i)
			}
			for i := range wl {
				wl[i] += pl.value(o+arSmall, i)
			}
		}
		pl.wantSmall[r], pl.wantLarge[r] = ws, wl
	}
	return pl
}

// value is element i of the input vector starting at pool offset o.
func (pl *arPlan) value(o, i int) float64 { return pl.pool[(o+i)%arValues] }

// ops counts one op per rank collective call.
func (pl *arPlan) ops() int { return pl.ranks * pl.rounds * 3 }

func buildAllreduce(pl *arPlan) builder {
	return func(in instrument) (*instance, error) {
		fp := simnet.UniformLoss(pl.faultSeed, arDropPct/100.0, 1)
		opts := core.DefaultOptions()
		opts.Reliability = true
		c, err := newCluster(pl.ranks, &fp, opts, in, true)
		if err != nil {
			return nil, err
		}
		return &instance{setup: c.setup, run: func() (*outcome, error) {
			o := &outcome{ops: pl.ops()}
			for _, m := range c.ranks {
				spawn(c, fmt.Sprintf("rank%d", m.Rank()), func(p *sim.Proc) { pl.rank(p, m, o) })
			}
			return finish(c, o)
		}}, nil
	}
}

// rank runs one rank's rounds.
func (pl *arPlan) rank(p *sim.Proc, m *madmpi.MPI, o *outcome) {
	comm := m.CommWorld()
	me := m.Rank()
	small, smallOut := make([]float64, arSmall), make([]float64, arSmall)
	large, largeOut := make([]float64, pl.large), make([]float64, pl.large)
	for r := 0; r < pl.rounds; r++ {
		off := pl.off[r][me]
		for i := range small {
			small[i] = pl.value(off, i)
		}
		for i := range large {
			large[i] = pl.value(off+arSmall, i)
		}
		if pl.corrupt && r == 0 && me == 0 {
			small[0]++
		}
		t := p.Now()
		err := comm.Allreduce(p, small, smallOut, madmpi.OpSum)
		ok := err == nil && equal(smallOut, pl.wantSmall[r])
		o.call(t, p.Now(), ok)
		o.prioLat = append(o.prioLat, p.Now()-t)
		if ok {
			o.payload += 8 * arSmall
		}
		t = p.Now()
		err = comm.Allreduce(p, large, largeOut, madmpi.OpSum)
		ok = err == nil && equal(largeOut, pl.wantLarge[r])
		o.call(t, p.Now(), ok)
		if ok {
			o.payload += 8 * int64(pl.large)
		}
		t = p.Now()
		err = comm.Barrier(p)
		o.call(t, p.Now(), err == nil)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
