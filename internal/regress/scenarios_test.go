// Package regress is the golden-trace regression harness, and exists
// only as tests: canonical simulation scenarios whose complete event
// streams are folded into a digest (trace.Digest) and compared against
// blessed golden files under testdata/. Any change to the latency model, the event engine, the proxy
// dispatch loop, or the communication protocol changes a digest and fails
// the suite until the goldens are explicitly re-blessed with
//
//	go test ./internal/regress -run TestGoldenTraces -update
//
// Each scenario is also replayed twice per test run, proving the engine's
// determinism property (tie-break by insertion sequence, one goroutine at
// a time) holds end to end rather than merely by construction.
package regress

import (
	"fmt"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Scenario is one canonical run: it builds a fresh simulation, attaches
// the given tracer to its engine before any event is scheduled, and runs
// to completion.
type Scenario struct {
	Name string // golden file basename
	Desc string
	Run  func(t trace.Tracer)
}

// Scenarios returns the golden-trace suite: the latency-critical
// micro-benchmark under each design point, a proxy-contention queueing
// scenario, a small full-stack application run, two faulty wires (MP1
// with the reliable transport, SW1 without it), every primitive's agent
// path on MP1 and HW1 (also over a faulty wire), and a stolen proxy turn.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "pingpong-mp1",
			Desc: "64B PUT ping-pong, 2 nodes x 1 proc, MP1 (Table 4 / Figure 7 path)",
			Run:  func(t trace.Tracer) { pingPongOn(t, "MP1", 8, nil) },
		},
		{
			Name: "queueing-mp1",
			Desc: "4 senders per proxy, mixed PUT/GET/ENQ incl. DMA path, 2 nodes x 4 procs, MP1 (Figure 9 path)",
			Run:  queueing,
		},
		{
			Name: "app-mm-mp1",
			Desc: "MM application at test scale, 2 nodes x 2 procs, MP1 (full stack: Split-C, collectives, AM)",
			Run:  appMM,
		},
		{
			Name: "faulty-pingpong-mp1",
			Desc: "64B PUT ping-pong over a lossy wire (seed=1, drop=1e-3) with reliable transport, MP1",
			Run:  faultyPingPong,
		},
		{
			Name: "pingpong-hw1",
			Desc: "64B PUT ping-pong, 2 nodes x 1 proc, HW1 (adapter protocol engine path)",
			Run:  func(t trace.Tracer) { pingPongOn(t, "HW1", 8, nil) },
		},
		{
			Name: "pingpong-sw1",
			Desc: "64B PUT ping-pong, 2 nodes x 1 proc, SW1 (system-call send, interrupt receive)",
			Run:  func(t trace.Tracer) { pingPongOn(t, "SW1", 8, nil) },
		},
		{
			Name: "faulty-pingpong-sw1",
			Desc: "64B PUT exchange over a corrupting wire (seed=1, corrupt=2e-2), no reliable transport, SW1",
			Run:  faultyExchangeSW1,
		},
		{
			Name: "opmix-mp1",
			Desc: "every primitive both ways: PIO/paged PUT with rsync and lsync acks, PIO/paged GET with rsync, ENQ lsync, remote DEQ, 2 nodes x 2 procs, MP1",
			Run:  func(t trace.Tracer) { opMix(t, "MP1", nil) },
		},
		{
			Name: "opmix-hw1",
			Desc: "the opmix-mp1 operation mix on HW1 (adapter protocol engine path)",
			Run:  func(t trace.Tracer) { opMix(t, "HW1", nil) },
		},
		{
			Name: "steal-mp1",
			Desc: "PUT burst on one proxy while its sibling idles, 2 nodes x 2 procs x 2 proxies, steal scheduling, MP1",
			Run:  steal,
		},
		{
			Name: "faulty-opmix-mp1",
			Desc: "the opmix-mp1 operation mix with reliable transport over a wire that drops, corrupts and duplicates (seed=3), MP1",
			Run:  faultyOpMix,
		},
	}
}

func mustArch(name string) arch.Params {
	a, ok := arch.ByName(name)
	if !ok {
		panic("regress: unknown architecture " + name)
	}
	return a
}

// newSim starts a traced simulation of cfg under the named design point
// and builds its fabric. A non-nil plane faults the wire.
func newSim(t trace.Tracer, archName string, cfg machine.Config, plane machine.FaultPlane, opt comm.Options) (*sim.Engine, *machine.Cluster, *comm.Fabric) {
	eng := sim.NewEngine()
	eng.SetTracer(t)
	cl := machine.New(eng, cfg, mustArch(archName))
	if plane != nil {
		cl.SetFaultPlane(plane)
	}
	return eng, cl, comm.NewWith(cl, opt)
}

// pingPongOn runs the micro-benchmark critical path under the named
// design point: rank 0 PUTs 64 bytes to rank 1 and waits for the return
// PUT, reps round trips. A non-nil plane faults the wire and turns on the
// reliable transport to recover.
func pingPongOn(t trace.Tracer, archName string, reps int, plane machine.FaultPlane) {
	const n = 64
	var opt comm.Options
	if plane != nil {
		opt.Rel = &rel.Config{}
	}
	eng, _, f := newSim(t, archName, machine.Config{Nodes: 2, ProcsPerNode: 1}, plane, opt)
	reg := f.Registry()
	b0 := reg.NewSegment(0, n)
	b1 := reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping := reg.NewFlag(1)
	pong := reg.NewFlag(0)
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	eng.Spawn("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		for i := 0; i < reps; i++ {
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				panic(err)
			}
			pongF.Wait(p, int64(i+1))
		}
	})
	eng.Spawn("ponger", func(p *sim.Proc) {
		ep := f.Endpoint(1)
		ep.Bind(p)
		for i := 0; i < reps; i++ {
			pingF.Wait(p, int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				panic(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		panic("regress: pingpong: " + err.Error())
	}
	if err := f.RelErr(); err != nil {
		panic("regress: pingpong transport: " + err.Error())
	}
}

// faultyPingPong is 400 ping-pong round trips on MP1 over a
// deterministic lossy wire: a seeded fault plane drops one packet in a
// thousand and the reliable transport recovers them. The blessed digest
// covers the whole fault pipeline — PRNG draws, drop events,
// retransmission timers, ack traffic — so a change to any of them is
// caught byte-for-byte, exactly like a latency model change.
func faultyPingPong(t trace.Tracer) {
	pingPongOn(t, "MP1", 400, fault.NewPlane(fault.Config{Seed: 1, Drop: 1e-3}))
}

// faultyExchangeSW1 streams 64-byte PUTs both ways between two SW1 nodes
// over a wire that corrupts a fraction of packets, with no reliable
// transport: the receiver's integrity check discards each corrupted
// packet and nothing retransmits it. Neither side waits on the other
// (a lost PUT would otherwise hang the exchange), so the digest pins the
// corrupt-packet path of the system-call design point — the KCorrupt
// emission and its link name — alongside the surviving deliveries.
func faultyExchangeSW1(t trace.Tracer) {
	const n, reps = 64, 200
	gap := 20 * sim.Microsecond
	plane := fault.NewPlane(fault.Config{Seed: 1, Corrupt: 2e-2})
	eng, cl, f := newSim(t, "SW1", machine.Config{Nodes: 2, ProcsPerNode: 1}, plane, comm.Options{})
	reg := f.Registry()
	segs := [2]*memory.Segment{reg.NewSegment(0, n), reg.NewSegment(1, n)}
	segs[0].Grant(1)
	segs[1].Grant(0)
	for r := 0; r < 2; r++ {
		me, peer := r, 1-r
		rsync := reg.NewFlag(peer)
		eng.Spawn(fmt.Sprintf("sender%d", me), func(p *sim.Proc) {
			ep := f.Endpoint(me)
			ep.Bind(p)
			for i := 0; i < reps; i++ {
				if err := ep.Put(segs[me].Addr(0), segs[peer].Addr(0), n, memory.FlagRef{}, rsync); err != nil {
					panic(err)
				}
				p.Hold(gap)
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic("regress: faulty-exchange-sw1: " + err.Error())
	}
	if cl.Nodes[0].OutLink.Lost()+cl.Nodes[1].OutLink.Lost() == 0 {
		panic("regress: faulty-exchange-sw1: no packet was corrupted; the scenario pins nothing")
	}
}

// queueing loads one message proxy with four concurrent senders issuing a
// mix of primitives — small PUTs (PIO), an 8 KiB PUT (pinned DMA pages), a
// GET (request/reply) and an ENQ into the partner's remote queue — so the
// trace captures command-queue scanning, agent queueing delay and every
// packet kind of the MP receive path.
func queueing(t trace.Tracer) {
	const (
		ppn   = 4
		reps  = 2
		small = 32
		big   = 8192
	)
	eng, _, f := newSim(t, "MP1", machine.Config{Nodes: 2, ProcsPerNode: ppn}, nil, comm.Options{})
	reg := f.Registry()
	for i := 0; i < ppn; i++ {
		i := i
		partner := ppn + i
		src := reg.NewSegment(i, big)
		dst := reg.NewSegment(partner, big)
		dst.Grant(i)
		src.Grant(partner)
		rq := reg.NewQueue(partner)
		rq.Grant(i)
		rqRef := memory.QueueRef{Owner: partner, ID: rq.ID}
		rsync := reg.NewFlag(partner) // counts deposits at the partner
		lsync := reg.NewFlag(i)       // counts local completions
		rsyncF, _ := reg.Flag(rsync)
		eng.Spawn(fmt.Sprintf("sender%d", i), func(p *sim.Proc) {
			ep := f.Endpoint(i)
			ep.Bind(p)
			var done int64
			for r := 0; r < reps; r++ {
				if err := ep.Put(src.Addr(0), dst.Addr(0), small, memory.FlagRef{}, rsync); err != nil {
					panic(err)
				}
				if err := ep.Put(src.Addr(0), dst.Addr(0), big, memory.FlagRef{}, rsync); err != nil {
					panic(err)
				}
				if err := ep.Get(src.Addr(0), dst.Addr(0), small, lsync, memory.FlagRef{}); err != nil {
					panic(err)
				}
				if err := ep.Enq(src.Addr(0), rqRef, 24, lsync); err != nil {
					panic(err)
				}
				done += 2
				ep.WaitFlag(lsync, done)
			}
		})
		eng.Spawn(fmt.Sprintf("receiver%d", partner), func(p *sim.Proc) {
			ep := f.Endpoint(partner)
			ep.Bind(p)
			rsyncF.Wait(p, 2*reps) // both PUT deposits per rep
			rqQ, _ := reg.Queue(rqRef)
			for r := 0; r < reps; r++ {
				ep.Recv(rqQ)
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic("regress: queueing: " + err.Error())
	}
}

// appMM runs the MM application (Split-C matrix multiply) at test scale on
// a 2x2 cluster: the full software stack — Split-C global pointers,
// collectives, active messages — over the message-proxy fabric.
func appMM(t trace.Tracer) {
	spec, err := registry.ByName("MM")
	if err != nil {
		panic(err)
	}
	env := apps.NewEnv(machine.Config{Nodes: 2, ProcsPerNode: 2}, mustArch("MP1"), 8<<20)
	env.Eng.SetTracer(t)
	if _, err := apps.Run(env, spec.New(registry.Test)); err != nil {
		panic("regress: app-mm: " + err.Error())
	}
}

// countingPlane tallies the fates a fault plane hands out, so a faulty
// scenario can prove it exercised each kind of fault.
type countingPlane struct {
	machine.FaultPlane
	drops, corrupts, dups int
}

func (c *countingPlane) PacketFate(link string, node int, seq uint64, now sim.Time) machine.PacketFate {
	fate := c.FaultPlane.PacketFate(link, node, seq, now)
	if fate.Drop {
		c.drops++
	}
	if fate.Corrupt {
		c.corrupts++
	}
	if fate.Dup {
		c.dups++
	}
	return fate
}

// faultyOpMix is the opmix-mp1 operation mix with the reliable transport
// over a wire that drops, corrupts and duplicates packets. It panics
// unless every fault kind, a retransmission and a DMA-fed page frame
// actually occurred, so its digest pins rel's overlapped and
// retransmitted frames.
func faultyOpMix(t trace.Tracer) {
	plane := &countingPlane{FaultPlane: fault.NewPlane(fault.Config{Seed: 3, Drop: 0.03, Corrupt: 0.03, Dup: 0.03})}
	cl, f := opMix(t, "MP1", plane)
	var pages int64
	for _, nd := range cl.Nodes {
		pages += nd.DMA.Packets()
	}
	st := f.Rel().Stats()
	if plane.drops == 0 || plane.corrupts == 0 || plane.dups == 0 || st.Retransmits == 0 || pages == 0 {
		panic(fmt.Sprintf("regress: faulty-opmix: the wire exercised too little: %d drops, %d corruptions, %d duplicates, %d retransmissions, %d DMA pages",
			plane.drops, plane.corrupts, plane.dups, st.Retransmits, pages))
	}
}

// opMix drives every agent protocol path under the named design point on
// a 2x2 cluster. Rank 0 targets rank 2 and rank 3 targets rank 1, so both
// nodes' agents serve the send and the receive side at once. Each rep
// issues, back to back: a PIO PUT with rsync, a PIO PUT with an lsync
// ack, the same two as paged (DMA) PUTs, a PIO and a paged GET each with
// rsync at the data source, an ENQ with lsync into the partner's queue
// and a DEQ of that record back from it. A non-nil plane turns on the
// reliable transport over it.
func opMix(t trace.Tracer, archName string, plane machine.FaultPlane) (*machine.Cluster, *comm.Fabric) {
	const (
		reps  = 2
		small = 64
		big   = 8192 // two pages, past every design point's PIO cutoff
		rec   = 24
	)
	var opt comm.Options
	if plane != nil {
		opt.Rel = &rel.Config{}
	}
	eng, cl, f := newSim(t, archName, machine.Config{Nodes: 2, ProcsPerNode: 2}, plane, opt)
	reg := f.Registry()
	for _, pair := range [][2]int{{0, 2}, {3, 1}} {
		me, peer := pair[0], pair[1]
		src := reg.NewSegment(me, big)
		dst := reg.NewSegment(peer, big)
		src.Grant(peer)
		dst.Grant(me)
		rq := reg.NewQueue(peer)
		rq.Grant(me)
		rqRef := memory.QueueRef{Owner: peer, ID: rq.ID}
		rsync := reg.NewFlag(peer)
		lsync := reg.NewFlag(me)
		none := memory.FlagRef{}
		eng.Spawn(fmt.Sprintf("issuer%d", me), func(p *sim.Proc) {
			ep := f.Endpoint(me)
			ep.Bind(p)
			must := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			var done int64
			for r := 0; r < reps; r++ {
				must(ep.Put(src.Addr(0), dst.Addr(0), small, none, rsync))
				must(ep.Put(src.Addr(0), dst.Addr(0), small, lsync, none))
				must(ep.Put(src.Addr(0), dst.Addr(0), big, none, rsync))
				must(ep.Put(src.Addr(0), dst.Addr(0), big, lsync, none))
				must(ep.Get(src.Addr(0), dst.Addr(0), small, lsync, rsync))
				must(ep.Get(src.Addr(0), dst.Addr(0), big, lsync, rsync))
				must(ep.Enq(src.Addr(0), rqRef, rec, lsync))
				must(ep.Deq(src.Addr(0), rqRef, rec, lsync))
				done += 6 // two PUT acks, two GETs, the ENQ and the DEQ
				ep.WaitFlag(lsync, done)
			}
		})
		eng.Spawn(fmt.Sprintf("target%d", peer), func(p *sim.Proc) {
			ep := f.Endpoint(peer)
			ep.Bind(p)
			ep.WaitFlag(rsync, 4*reps) // two PUT deposits and two GET reads per rep
		})
	}
	if err := eng.Run(); err != nil {
		panic("regress: opmix: " + err.Error())
	}
	if err := f.RelErr(); err != nil {
		panic("regress: opmix transport: " + err.Error())
	}
	return cl, f
}

// steal loads one of a node's two proxies with a burst of PUTs while its
// sibling serves a single command and then goes idle, so under the steal
// policy the idle proxy takes stolen scan turns on its sibling's command
// queues and the loaded proxy's own work tokens go stale. It panics if no
// turn was stolen.
func steal(t trace.Tracer) {
	const (
		burst = 8
		n     = 64
	)
	eng, cl, f := newSim(t, "MP1", machine.Config{Nodes: 2, ProcsPerNode: 2, ProxiesPerNode: 2}, nil, comm.Options{ProxySched: "steal"})
	reg := f.Registry()
	// Ranks 0 and 1 sit on node 0's proxies 0 and 1; each PUTs to its
	// counterpart on node 1, rank 0 a burst and rank 1 a single message.
	for _, pair := range [][3]int{{0, 2, burst}, {1, 3, 1}} {
		me, peer, count := pair[0], pair[1], pair[2]
		src := reg.NewSegment(me, n)
		dst := reg.NewSegment(peer, n)
		dst.Grant(me)
		rsync := reg.NewFlag(peer)
		eng.Spawn(fmt.Sprintf("sender%d", me), func(p *sim.Proc) {
			ep := f.Endpoint(me)
			ep.Bind(p)
			for i := 0; i < count; i++ {
				if err := ep.Put(src.Addr(0), dst.Addr(0), n, memory.FlagRef{}, rsync); err != nil {
					panic(err)
				}
			}
		})
		eng.Spawn(fmt.Sprintf("receiver%d", peer), func(p *sim.Proc) {
			ep := f.Endpoint(peer)
			ep.Bind(p)
			ep.WaitFlag(rsync, int64(count))
		})
	}
	if err := eng.Run(); err != nil {
		panic("regress: steal: " + err.Error())
	}
	// Node 0's proxy 1 owns one command; every further item is a steal.
	if served := cl.Nodes[0].Agents[1].Served(); served < 2 {
		panic(fmt.Sprintf("regress: steal: the idle proxy served %d items and stole nothing", served))
	}
}
