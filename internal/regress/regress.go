// Package regress defines the golden-trace regression harness: canonical
// simulation scenarios whose complete event streams are folded into a
// digest (trace.Digest) and compared against blessed golden files under
// testdata/. Any change to the latency model, the event engine, the proxy
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
// scenario, a small full-stack application run, and two faulty wires
// (MP1 with the reliable transport, SW1 without it).
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "pingpong-mp1",
			Desc: "64B PUT ping-pong, 2 nodes x 1 proc, MP1 (Table 4 / Figure 7 path)",
			Run:  pingPong,
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
			Run:  func(t trace.Tracer) { pingPongOn(t, "HW1") },
		},
		{
			Name: "pingpong-sw1",
			Desc: "64B PUT ping-pong, 2 nodes x 1 proc, SW1 (system-call send, interrupt receive)",
			Run:  func(t trace.Tracer) { pingPongOn(t, "SW1") },
		},
		{
			Name: "faulty-pingpong-sw1",
			Desc: "64B PUT exchange over a corrupting wire (seed=1, corrupt=2e-2), no reliable transport, SW1",
			Run:  faultyExchangeSW1,
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

// pingPong reproduces the micro-benchmark critical path on MP1.
func pingPong(t trace.Tracer) { pingPongOn(t, "MP1") }

// pingPongOn runs the micro-benchmark critical path under the named
// design point: rank 0 PUTs to rank 1 and waits for the return PUT, 8
// round trips of 64 bytes.
func pingPongOn(t trace.Tracer, archName string) {
	const n, reps = 64, 8
	a := mustArch(archName)
	eng := sim.NewEngine()
	eng.SetTracer(t)
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	f := comm.New(cl)
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
}

// faultyPingPong is pingPong over a deterministic lossy wire: a seeded
// fault plane drops one packet in a thousand and the reliable transport
// recovers them. The blessed digest covers the whole fault pipeline —
// PRNG draws, drop events, retransmission timers, ack traffic — so a
// change to any of them is caught byte-for-byte, exactly like a latency
// model change.
func faultyPingPong(t trace.Tracer) {
	const n, reps = 64, 400
	a := mustArch("MP1")
	eng := sim.NewEngine()
	eng.SetTracer(t)
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	cl.SetFaultPlane(fault.NewPlane(fault.Config{Seed: 1, Drop: 1e-3}))
	f := comm.NewWith(cl, comm.Options{Rel: &rel.Config{}})
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
		panic("regress: faulty-pingpong: " + err.Error())
	}
	if err := f.RelErr(); err != nil {
		panic("regress: faulty-pingpong transport: " + err.Error())
	}
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
	a := mustArch("SW1")
	eng := sim.NewEngine()
	eng.SetTracer(t)
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	cl.SetFaultPlane(fault.NewPlane(fault.Config{Seed: 1, Corrupt: 2e-2}))
	f := comm.New(cl)
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
	a := mustArch("MP1")
	eng := sim.NewEngine()
	eng.SetTracer(t)
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: ppn}, a)
	f := comm.New(cl)
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
