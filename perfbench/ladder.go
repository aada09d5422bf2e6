package main

import (
	"fmt"
	"time"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// The layer ladder times calls into one layer's public functions at a
// time, each rung on a fresh 2-node MP1 cluster, so the difference between
// adjacent rungs is one layer's host cost: engine event, agent work item,
// comm PUT round trip, AM round trip, KV GET and PUT.
var rungs = []struct {
	name string
	ops  int
	run  func(a arch.Params, ops int) error
}{
	{"engine_event", 2_000_000, rungEngine},
	{"agent_work", 1_000_000, rungAgent},
	{"comm_put_rt", 50_000, rungCommPut},
	{"am_rt", 50_000, rungAM},
	{"kv_get", 50_000, func(a arch.Params, ops int) error { return rungKV(a, ops, kv.OpGet) }},
	{"kv_put", 50_000, func(a arch.Params, ops int) error { return rungKV(a, ops, kv.OpPut) }},
}

// ladderReps is how many times each rung runs; the median is reported.
const ladderReps = 5

// ladder runs every rung and reports host ns and heap allocations per op.
func ladder(r *report) error {
	a, ok := arch.ByName("MP1")
	if !ok {
		return fmt.Errorf("unknown design point MP1")
	}
	for _, rg := range rungs {
		var ns, allocs []float64
		for rep := 0; rep < ladderReps; rep++ {
			m0, _ := mallocs()
			t0 := time.Now()
			if err := rg.run(a, rg.ops); err != nil {
				return fmt.Errorf("ladder %s: %w", rg.name, err)
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(rg.ops))
			m1, _ := mallocs()
			allocs = append(allocs, float64(m1-m0)/float64(rg.ops))
		}
		r.set("ladder."+rg.name+"_ns", median(ns))
		r.set("ladder."+rg.name+"_allocs", median(allocs))
	}
	return nil
}

// rungEngine is a self-rescheduling zero-delay chain: one
// sim.Engine.Schedule and one fire per op.
func rungEngine(_ arch.Params, ops int) error {
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < ops {
			e.Schedule(0, step)
		}
	}
	e.Schedule(0, step)
	if err := e.Run(); err != nil {
		return err
	}
	return count("events", n, ops)
}

// rungAgent feeds node 0's proxy agent one machine.Agent.Submit per op;
// each work item submits the next before completing.
func rungAgent(a arch.Params, ops int) error {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	ag := cl.Nodes[0].Agents[0]
	n := 0
	var w machine.Work
	w = machine.Work{TFn: func(ag *machine.Agent, _ any) {
		n++
		if n < ops {
			ag.Submit(w)
		}
		ag.WorkDone()
	}}
	eng.Schedule(0, func() { ag.Submit(w) })
	if err := eng.Run(); err != nil {
		return err
	}
	return count("work items", n, ops)
}

// rungCommPut bounces a 64-byte comm.Endpoint.Put between the two nodes'
// processes, one round trip (two PUTs) per op.
func rungCommPut(a arch.Params, ops int) error {
	const n = 64
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	f := comm.New(cl)
	reg := f.Registry()
	b0, b1 := reg.NewSegment(0, n), reg.NewSegment(1, n)
	b0.Grant(1)
	b1.Grant(0)
	ping, pong := reg.NewFlag(1), reg.NewFlag(0)
	pingF, _ := reg.Flag(ping)
	pongF, _ := reg.Flag(pong)
	var errPut error
	rounds := 0
	eng.Spawn("pinger", func(p *sim.Proc) {
		ep := f.Endpoint(0)
		ep.Bind(p)
		for i := 0; i < ops; i++ {
			if err := ep.Put(b0.Addr(0), b1.Addr(0), n, memory.FlagRef{}, ping); err != nil {
				errPut = err
				return
			}
			pongF.Wait(p, int64(i+1))
			rounds++
		}
	})
	eng.Spawn("ponger", func(p *sim.Proc) {
		ep := f.Endpoint(1)
		ep.Bind(p)
		for i := 0; i < ops; i++ {
			pingF.Wait(p, int64(i+1))
			if err := ep.Put(b1.Addr(0), b0.Addr(0), n, memory.FlagRef{}, pong); err != nil {
				errPut = err
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		return err
	}
	if errPut != nil {
		return errPut
	}
	return count("round trips", rounds, ops)
}

// rungAM bounces an active message between rank 0 and rank 1 with
// am.Port.SendTask, one request-reply round trip per op.
func rungAM(a arch.Params, ops int) error {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, a)
	l := am.New(comm.New(cl))
	rounds := 0
	var hPing, hPong int
	hPing = l.RegisterTask(func(p *am.Port, t *sim.Task, src int, args []int64, _ []byte, k func()) {
		p.SendTask(t, src, hPong, args, nil, k)
	})
	hPong = l.RegisterTask(func(p *am.Port, t *sim.Task, src int, args []int64, _ []byte, k func()) {
		rounds++
		if rounds < ops {
			p.SendTask(t, src, hPing, args, nil, k)
			return
		}
		k()
	})
	srv, cli := l.Port(1), l.Port(0)
	eng.SpawnTaskDaemon("am.server", func(t *sim.Task) {
		srv.ServeWhileTask(t, func() bool { return false })
	})
	eng.SpawnTask("am.client", func(t *sim.Task) {
		cli.SendTask(t, 1, hPing, []int64{0}, nil, func() {
			cli.ServeWhileTask(t, func() bool { return rounds >= ops })
		})
	})
	if err := eng.Run(); err != nil {
		return err
	}
	return count("round trips", rounds, ops)
}

// rungKV issues closed-loop kv.Service GETs or PUTs (replication 1) from
// node 0's client to a key served on node 1, one request-reply per op.
func rungKV(a arch.Params, ops int, op kv.Op) error {
	eng := sim.NewEngine()
	cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 2}, a)
	l := am.New(comm.New(cl))
	servers := []int{0, 2} // slot 0 of each node; slot 1 of node 0 is the client
	svc := kv.New(l, kv.Config{Servers: servers, ValueBytes: 64, ScanCount: 16, Replication: 1})
	key := uint64(0)
	for svc.Primary(key) != servers[1] {
		key++
	}
	for _, rank := range servers {
		port := l.Port(rank)
		eng.SpawnTaskDaemon(fmt.Sprintf("kv.server.%d", rank), func(t *sim.Task) {
			port.ServeWhileTask(t, func() bool { return false })
		})
	}
	port := l.Port(1)
	replies, sent := 0, 0
	var issuer *sim.Task
	svc.OnReply = func(int, kv.Op, int64, int64) {
		replies++
		eng.WakeTask(issuer)
	}
	eng.SpawnTask("kv.recv", func(t *sim.Task) {
		port.ServeWhileTask(t, func() bool { return replies >= ops })
	})
	var step func(t *sim.Task)
	step = func(t *sim.Task) {
		if sent == ops {
			return
		}
		sent++
		next := func() { t.Park(func() { step(t) }) }
		if op == kv.OpGet {
			svc.GetTask(port, t, key, 0, int64(eng.Now()), next)
		} else {
			svc.PutTask(port, t, key, 0, int64(eng.Now()), next)
		}
	}
	issuer = eng.SpawnTask("kv.client", step)
	if err := eng.Run(); err != nil {
		return err
	}
	return count("replies", replies, ops)
}

func count(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%d of %d %s", got, want, what)
	}
	return nil
}
