// Package nmad is a Go reproduction of NewMadeleine, the communication
// scheduling engine for high-performance networks of Aumage, Brunet,
// Furmento and Namyst (INRIA RR-6085, 2006 / IPPS 2007).
//
// # What it is
//
// NewMadeleine decouples communication-request processing from the
// application workflow and ties it to NIC activity instead: requests
// accumulate in an optimization window while the NICs are busy, and each
// time a NIC becomes idle a pluggable strategy synthesizes the next
// ready-to-send packet — aggregating small requests across logical flows
// (even across MPI communicators), reordering them, turning large ones
// into rendezvous transactions, and splitting bodies over multiple
// heterogeneous rails.
//
// Since real Myri-10G/Quadrics NICs cannot be driven from a Go
// user-level process, the hardware is substituted by a deterministic
// discrete-event network simulator with LogGP-style cost models
// calibrated against the paper's 2006 Opteron testbed. All latency and
// bandwidth figures are read off the virtual clock.
//
// # The API
//
// The package is a facade in three movements:
//
// Construction is functional options. A Cluster is the machine; engines
// and MPI ranks live on its nodes:
//
//	cl, _ := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
//	e0, _ := cl.Engine(0, nmad.WithStrategy("aggreg"), nmad.WithTracer(tr))
//	m1, _ := cl.MPI(1)
//
// Completion is one Request interface. Sends, receives, packed messages
// and MAD-MPI handles all expose Done/Test/Err/Wait/Bytes, compose with
// NewRequestGroup, and finish through WaitAll/WaitAny:
//
//	s := e0.Gate(1).Isend(p, tag, data, nmad.Priority())
//	r := e0.Gate(1).Irecv(p, tag2, buf)
//	idx, _ := nmad.WaitAny(p, s, r)
//
// Non-contiguous data is first-class. Isendv/Irecvv move an iovec — a
// gather/scatter list of segments anywhere in user space — as ONE
// wrapper, NIC-gathered on send and scattered on delivery; MAD-MPI
// derived datatypes ride this path, so an indexed layout is one wire
// entry the strategies aggregate natively (the paper's §5.3 result):
//
//	e0.Gate(1).Isendv(p, tag, [][]byte{hdr, col0, col1})
//
// The optimizer is programmable. Package nmad/sched is the public
// scheduling SPI: a Strategy elects wrappers out of the per-rail window
// view, with the rails' nominal capabilities and sampled achieved
// bandwidth in hand. WithStrategy accepts a registry name or a Strategy
// value; RegisterStrategy adds names (error on duplicates); the
// built-ins — default, aggreg, split, prio, adaptive — are implemented
// on the same SPI:
//
//	e0, _ := cl.Engine(0, nmad.WithStrategy(myStrategy{}))
//	_ = nmad.RegisterStrategy("mine", func() nmad.Strategy { return myStrategy{} })
//
// # Collectives and algorithm selection
//
// The MAD-MPI collectives (Barrier, Bcast, Gather, Scatter, Allgather,
// Alltoall, Reduce, Allreduce) run on a collective schedule engine:
// each call compiles into a DAG of nonblocking send/recv/compute steps
// executed with request groups, so rounds and segments overlap and the
// traffic flows through the optimization window like any other —
// strategies aggregate segments of different rounds into one packet,
// credits bound them, large segments go rendezvous. Algorithms are
// pluggable via a registry mirroring RegisterStrategy: dissemination
// barrier, binomial and segmented pipeline-chain bcast/reduce, tree and
// segmented pipelined-ring (reduce-scatter + allgather) allreduce, ring
// and gather-bcast allgather, linear and pairwise alltoall. Selection
// is automatic by message size and communicator size; WithCollAlgo
// pins one and WithCollSegment tunes the pipelining granularity:
//
//	m, _ := cl.MPI(0, nmad.WithCollAlgo(nmad.CollAllreduce, "ring"),
//		nmad.WithCollSegment(8<<10))
//	_ = nmad.RegisterCollAlgo(nmad.CollBcast, "mine", myBuilder)
//
// Collective buffers are validated (ErrCollBuffer instead of slice
// panics: Gather's recvBuf must be exactly Size×len(sendBuf), and so
// on), and the collective tag space is epoch-extended — when a
// communicator's 2^22-collective window wraps, tags move to a fresh
// lane instead of being reused, and genuine exhaustion (2^29
// collectives) reports ErrCollTags. The "allreduce" bench figure
// sweeps vector size × node count × algorithm against the seed's
// blocking trees.
//
// # Flow control and overload
//
// Under many-to-one overload an unbounded receive queue is an
// out-of-memory scenario. WithCredits(n) enables credit-based receive
// flow control: every gate starts with n eager landing credits, a sent
// data wrapper consumes one, and the receiver returns credits as it
// consumes wrappers — replenishment travels as a control entry that
// aggregates with outbound traffic like the rendezvous handshake. While
// a peer's budget is exhausted the sender's data wrappers wait in the
// optimization window, invisible to strategies (sched.Window.Credits
// reports the remaining budget), so the eager traffic in the receiver's
// unexpected queue and resequencing buffers stays bounded by the budget
// (Stats.PeakUnexpected, Stats.PeakHeld); rendezvous requests queue as
// bare headers with their bodies gated by the grant cap.
// WithMaxGrants(n) caps concurrent inbound rendezvous
// transactions with deferred grants; a grant is always clamped to the
// posted landing capacity (short buffers complete with ErrTruncated and
// the excess never crosses the wire); and receive-path protocol
// anomalies are counted (Stats.ProtocolErrors, Gate.ProtocolErrors)
// instead of panicking the node:
//
//	e0, _ := cl.Engine(0, nmad.WithCredits(32), nmad.WithMaxGrants(4))
//
// The incast bench workload (nmad-bench -fig incast) exercises exactly
// this scenario.
//
// # Multi-tenant job queue
//
// NewQueue puts a bounded admission queue and fair-share dispatcher in
// front of one engine, so several tenants' workloads share a node
// without hand-written interleaving. Tenants are declared with a name,
// a weight and a class (ClassBulk, ClassNormal, ClassLatency); Submit
// enqueues a named job — a function run as its own simulated process
// once dispatched — and returns a Job handle with virtual-time
// Wait/Done/Err plus Submitted/Dispatched/Completed stamps. Dispatch
// order is deterministic stride scheduling (a weight-4 tenant gets
// four slots per weight-1 slot), classes set the base dispatch level
// with latency-class tenants preempting queued bulk, and queued jobs
// age one class per WithQueueAging interval so nothing starves.
// Admission past WithQueueCapacity fails fast with ErrQueueFull.
// Counters flow through Stats (JobsAdmitted through PeakJobWait) and
// Tenant.Stats():
//
//	q, _ := nmad.NewQueue(e0, nmad.WithQueueWorkers(2),
//		nmad.WithTenant("mover", 1, nmad.ClassBulk),
//		nmad.WithTenant("rpc", 4, nmad.ClassLatency))
//	job, _ := q.Submit("rpc", "lookup", func(p *nmad.Proc) error { ... })
//
// Scenario files declare the same thing with a tenants list and a
// queue block, and the tenant-isolation bench figure measures the
// headline property: a latency tenant's pingpong stays within 2x its
// unloaded time while a bulk tenant's incast burst runs to completion.
//
// # Fault injection and reliability
//
// The fabric can lie. WithFaults installs a seeded FaultProfile on the
// cluster: per-rail drop/duplicate/reorder probabilities plus scheduled
// Outage windows during which a rail goes dark, drawn from a
// deterministic per-network RNG — the same seed always corrupts the
// same packets (UniformLoss builds the simplest profile; FaultStats
// reports what the injector did). WithReliability arms the engines'
// link layer against it: eager trains carry link-sequence framing with
// cumulative acks piggybacked on reverse traffic (delayed and coalesced
// when there is none), unacked trains retransmit on timeout
// (WithRetransmitTimeout), duplicates and reordered trains are absorbed
// before dispatch, and rendezvous bodies are repaired chunk-wise — the
// receiver tracks span coverage and re-pushes its CTS until the body is
// whole. When a rail exhausts its retransmit budget
// (WithRetransmitBudget) it is declared failed: pinned wrappers re-home
// to surviving rails, in-flight traffic is re-issued, and a ping/pong
// probe watches for recovery (the last rail never fails — the engine
// keeps retrying). Stats counts Retransmits, DupAcks,
// ReorderedAccepts, BodyReissues, FailedRails and RecoveredRails:
//
//	cl, _ := nmad.NewCluster(8, nmad.WithFaults(nmad.UniformLoss(42, 0.10, 1)))
//	e0, _ := cl.Engine(0, nmad.WithReliability())
//
// Both sides of a gate must agree on WithReliability (it changes the
// wire format). Under reliability an unset body chunk defaults to 64KB
// so a long rendezvous body cannot monopolize a wire past the
// retransmit timeout. Fault profiles are stamped into recordings and
// re-applied seeded on replay, so a lossy replay is timeline-
// deterministic, retransmissions included; nmad-replay -lossless
// replays the same load on a clean fabric. The emulation scales: the
// CI faults job runs a 1024-node dissemination barrier and allgather at
// 1% drop, and the scale-nodes / drop-resilience bench figures sweep
// job size and drop probability with every payload verified.
//
// # Recording and replaying schedules
//
// WithRecording captures a run's offered load — every application-level
// submission with its virtual-time offset, plus the cluster topology —
// into a versioned JSONL recording, separated from the schedule the
// engine produced on it. Replay reconstructs the machine and re-issues
// each operation at its recorded instant under any strategy, credit
// budget or rail set: exact A/B comparisons on identical submission
// timing, immune to the feedback between schedule and application
// progress that skews live comparisons:
//
//	rec := nmad.NewRecording()
//	e0, _ := cl.Engine(0, nmad.WithRecording(rec))   // every engine
//	... run, then rec.Write(f) / loaded, _ := nmad.ReadRecording(f)
//	results, _ := nmad.ReplayAB(loaded, []string{"default", "aggreg"})
//
// Replaying the same recording under the same strategy is
// event-for-event deterministic, asserted against golden timelines in
// internal/replay/testdata (the regression gate for scheduler changes);
// replaying under the recorded personality reproduces the original live
// run's Stats and timeline exactly. The format's version field
// (RecordingVersion, currently 1) gates compatibility: newer-version
// recordings are refused, unknown fields are ignored, semantic changes
// bump the version. cmd/nmad-trace -record writes a recording;
// cmd/nmad-replay re-drives one (-strategy, -ab, -credits, -grants).
//
// # Declarative scenarios
//
// A scenario file is a YAML description of a whole cluster experiment:
// the machine (nodes, rails by profile name, engine personality, seeded
// fault profile), a timeline of workload phases (pingpong, ring,
// incast, composite bulk+control, and the collectives) interleaved with
// mid-run events (rail degradation and restoration, outages, fault-rate
// changes, node slowdown, credit squeezes, named checkpoints),
// optionally a tenants list with a queue block routing tenant-tagged
// phases through the fair-share job queue, and
// assertions over the outcome — any Stats counter, per-rail fault
// counters, completion-time bounds, payload integrity, phase ordering.
// cmd/nmad-sim runs, validates and lists scenario files; the committed
// corpus under scenarios/ is run green by CI, so each file is an
// executable regression test. Runs are byte-deterministic for a fixed
// seed, and nmad-sim run -record captures the offered load as a
// recording stamped with the scenario name and seed, replayable through
// cmd/nmad-replay. LoadScenario, ParseScenario, ValidateScenario,
// RunScenario and ListScenarioDir expose the harness programmatically,
// with typed errors (ScenarioErrUnknownAction, ScenarioErrBadTarget,
// ScenarioErrPhaseOverlap, ...) classifying every way a file can be
// wrong. The format reference lives in internal/scenario.
//
// # Static analysis and invariants
//
// The engine's load-bearing promises — byte-deterministic replay,
// seeded fault injection, the SPI aliasing contract — are machine-checked
// by cmd/nmad-vet, a vet-compatible analyzer suite built in
// internal/analysis and run by CI over the whole module with
// go vet -vettool. Four analyzers police four invariants: determinism
// (no wall-clock reads, no global math/rand, no order-dependent
// map iteration in the deterministic packages — internal/core,
// internal/sim, internal/simnet, internal/madmpi, internal/scenario,
// internal/queue, internal/replay, internal/trace and sched),
// statssync (the scenario
// assertion tables cover exactly the exported numeric counters of
// core.Stats and simnet.FaultStats under their snake_case names),
// sentinelcmp (the module's sentinel errors are matched with errors.Is
// and errors.As, never == or type switches), and spileak (strategies
// never retain the Window, *Wrapper or RailInfo views the engine lends
// them during an election). A finding is suppressed one site at a time
// with "//nmadvet:allow <analyzer>(<reason>)"; the reason is mandatory
// and stale allows are themselves findings. Adding a counter to
// core.Stats fails CI until the scenario table in internal/scenario
// learns its snake_case name — that is the point.
//
// # Layout
//
//   - package nmad (this package): the facade — Cluster assembly,
//     functional options, and re-exports of the engine, MAD-MPI,
//     profiles, tracing and the benchmark harness.
//   - internal/sim: the discrete-event kernel (virtual clock, cooperative
//     processes, condition variables). Each process runs on an iter.Pull
//     coroutine that the scheduler switches to directly; a finished
//     process's coroutine is reused by the next one to start, and a Run
//     that drains stops the spare ones.
//   - internal/simnet: NIC/wire/host cost models and the five network
//     profiles (MX/Myri-10G, QsNetII, GM/Myrinet-2000, SISCI/SCI, TCP).
//   - internal/drivers: the transfer layer — one minimal driver per
//     network, with capability reports.
//   - sched: the public scheduling SPI — Strategy, the Window/Wrapper
//     views, Election, RailInfo, lifecycle hooks, the Chain combinator,
//     the strategy registry and the five built-in strategies.
//   - internal/core: the engine — collect layer, optimization window,
//     election validation against the SPI, rendezvous protocol,
//     resequencing receive path, the unified Request layer and the
//     vector (iovec) path.
//   - internal/madmpi: MAD-MPI — communicators, point-to-point,
//     derived datatypes, and the collective schedule engine with its
//     pluggable algorithm registry.
//   - internal/trace: scheduling-decision timelines (text and Chrome
//     trace-event export) and the versioned record/replay format.
//   - internal/replay: re-drives a recording under any strategy, credit
//     budget or rail set; golden-timeline determinism tests.
//   - internal/scenario: the declarative scenario harness — YAML-subset
//     parser, validation, phase workloads, mid-run events, assertions.
//   - internal/queue: the multi-tenant job queue — bounded admission,
//     weighted fair-share (stride) dispatch, class-based priority with
//     aging, per-tenant counters.
//   - internal/baseline: MPICH-like and OpenMPI-like comparators.
//   - internal/bench: the harness regenerating every evaluation figure.
//   - internal/analysis, cmd/nmad-vet: the static-analysis suite
//     enforcing the invariants above; internal/names holds the shared
//     snake_case naming rule it cross-checks against internal/scenario.
//
// # Quick start
//
//	cl, _ := nmad.NewCluster(2)
//	e0, _ := cl.Engine(0)
//	e1, _ := cl.Engine(1)
//	cl.Spawn("sender", func(p *nmad.Proc) {
//		e0.Gate(1).Send(p, 7, []byte("hello"))
//	})
//	cl.Spawn("receiver", func(p *nmad.Proc) {
//		buf := make([]byte, 64)
//		n, _ := e1.Gate(0).Recv(p, 7, buf)
//		fmt.Printf("got %q\n", buf[:n])
//	})
//	cl.Run()
package nmad
