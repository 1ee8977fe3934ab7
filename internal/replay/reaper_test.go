package replay

import (
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// handRecording builds a two-node recording on one MX rail from ops.
func handRecording(ops ...trace.Op) *trace.Recording {
	rec := trace.NewRecording()
	rec.RegisterTopology(2, []simnet.Profile{simnet.MX10G()}, simnet.DefaultHost())
	for _, op := range ops {
		op.Rail = -1
		if op.Kind == trace.OpRecv {
			op.Mask = ^uint64(0)
		}
		rec.RecordOp(op)
	}
	return rec
}

// Receives shorter than their sends complete with ErrTruncated, and
// replay counts each as a request error. The load mixes an eager and a
// rendezvous truncation with clean transfers issued at one instant, so
// several requests of a node are pending at once. The figures are the
// ones every replay of this recording has produced: Completion is the
// instant the last request completed, errors or not.
func TestReplayCountsTruncatedReceives(t *testing.T) {
	rec := handRecording(
		trace.Op{At: 0, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 1, Segs: []int{256}},
		trace.Op{At: 0, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 1, Segs: []int{100}},
		trace.Op{At: 1 * sim.Microsecond, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 2, Segs: []int{64 << 10}},
		trace.Op{At: 2 * sim.Microsecond, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 2, Segs: []int{1000}},
		trace.Op{At: 5 * sim.Microsecond, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 3, Segs: []int{512}},
		trace.Op{At: 5 * sim.Microsecond, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 3, Segs: []int{512}},
		trace.Op{At: 5 * sim.Microsecond, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 4, Segs: []int{128, 128}},
		trace.Op{At: 5 * sim.Microsecond, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 3, Segs: []int{512}},
		trace.Op{At: 5 * sim.Microsecond, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 3, Segs: []int{512}},
		trace.Op{At: 6 * sim.Microsecond, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 4, Segs: []int{64}},
	)
	res, err := Run(rec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestErrors != 3 {
		t.Errorf("RequestErrors = %d, want 3 (eager, rendezvous and vector truncation)", res.RequestErrors)
	}
	if want := sim.Time(11844); res.Completion != want {
		t.Errorf("Completion = %v, want %v", res.Completion, want)
	}
}

// A receive no send ever matches leaves a process blocked, so the
// replay reports the deadlock instead of returning a partial result as
// if it were complete.
func TestReplayUnmatchedReceiveDeadlocks(t *testing.T) {
	rec := handRecording(
		trace.Op{At: 0, Node: 0, Peer: 1, Kind: trace.OpSend, Tag: 1, Segs: []int{64}},
		trace.Op{At: 0, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 1, Segs: []int{64}},
		trace.Op{At: 3 * sim.Microsecond, Node: 1, Peer: 0, Kind: trace.OpRecv, Tag: 9, Segs: []int{64}},
	)
	_, err := Run(rec, Config{})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *sim.DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Now != 3280 {
		t.Errorf("deadlock %v, want one blocked process at 3280ns", dl)
	}
}
