package kv_test

import (
	"fmt"
	"testing"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
)

// harness is a minimal serving cluster: one KV server per node on
// processor slot 0, one client on node 0 slot 1.
type harness struct {
	eng     *sim.Engine
	svc     *kv.Service
	client  *am.Port
	servers []int
}

func newHarness(t *testing.T, nodes, replication int) *harness {
	return newHarnessProxies(t, nodes, replication, 1, "")
}

// newHarnessProxies builds the cluster with an explicit proxy count and
// scheduling policy, so the semantic tests can assert the service is
// indifferent to how command streams map onto proxy cores.
func newHarnessProxies(t *testing.T, nodes, replication, proxies int, sched string) *harness {
	t.Helper()
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("unknown arch MP1")
	}
	eng := sim.NewEngine()
	const ppn = 2
	cl := machine.New(eng, machine.Config{
		Nodes: nodes, ProcsPerNode: ppn,
		ProxiesPerNode: proxies, ProxySched: sched,
	}, a)
	l := am.New(comm.NewWith(cl, comm.Options{CommandQueueCap: 64}))
	servers := make([]int, nodes)
	for n := range servers {
		servers[n] = n * ppn
	}
	svc := kv.New(l, kv.Config{
		Servers:     servers,
		ValueBytes:  64,
		ScanCount:   16,
		Replication: replication,
	})
	for _, rank := range servers {
		port := l.Port(rank)
		eng.SpawnTaskDaemon(fmt.Sprintf("kv.server.%d", rank), func(t *sim.Task) {
			port.ServeWhileTask(t, func() bool { return false })
		})
	}
	return &harness{eng: eng, svc: svc, client: l.Port(1), servers: servers}
}

// run issues each op in sequence from the client and serves replies on
// the same port until every reply has arrived.
func (h *harness) run(t *testing.T, issue []func(p *am.Port, tk *sim.Task, k func())) {
	t.Helper()
	var got int
	want := len(issue)
	prev := h.svc.OnReply
	h.svc.OnReply = func(rank int, op kv.Op, flags, issued int64) {
		got++
		if prev != nil {
			prev(rank, op, flags, issued)
		}
	}
	h.eng.SpawnTask("client.issue", func(tk *sim.Task) {
		var step func(i int)
		step = func(i int) {
			if i == len(issue) {
				return
			}
			issue[i](h.client, tk, func() { step(i + 1) })
		}
		step(0)
	})
	h.eng.SpawnTask("client.recv", func(tk *sim.Task) {
		h.client.ServeWhileTask(tk, func() bool { return got >= want })
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("received %d replies, want %d", got, want)
	}
}

func TestPrimaryDeterministicAndSpread(t *testing.T) {
	h := newHarness(t, 4, 1)
	hit := map[int]int{}
	for key := uint64(0); key < 256; key++ {
		p := h.svc.Primary(key)
		if q := h.svc.Primary(key); q != p {
			t.Fatalf("Primary(%d) unstable: %d then %d", key, p, q)
		}
		hit[p]++
	}
	for _, rank := range h.servers {
		if hit[rank] == 0 {
			t.Errorf("no key of 256 sharded to server %d: %v", rank, hit)
		}
	}
}

func TestOpsCountedAndEchoed(t *testing.T) {
	h := newHarness(t, 3, 1)
	type reply struct {
		rank          int
		op            kv.Op
		flags, issued int64
	}
	var replies []reply
	h.svc.OnReply = func(rank int, op kv.Op, flags, issued int64) {
		replies = append(replies, reply{rank, op, flags, issued})
	}
	var issue []func(p *am.Port, tk *sim.Task, k func())
	for i := 0; i < 4; i++ {
		key, flags, issued := uint64(i), int64(i%2), int64(100+i)
		issue = append(issue,
			func(p *am.Port, tk *sim.Task, k func()) { h.svc.GetTask(p, tk, key, flags, issued, k) },
			func(p *am.Port, tk *sim.Task, k func()) { h.svc.PutTask(p, tk, key, flags, issued, k) },
			func(p *am.Port, tk *sim.Task, k func()) { h.svc.ScanTask(p, tk, key, flags, issued, k) },
		)
	}
	h.run(t, issue)
	for _, want := range []struct {
		op kv.Op
		n  int64
	}{{kv.OpGet, 4}, {kv.OpPut, 4}, {kv.OpScan, 4}} {
		if got := h.svc.Served(want.op); got != want.n {
			t.Errorf("Served(%v) = %d, want %d", want.op, got, want.n)
		}
	}
	if h.svc.Replicated() != 0 {
		t.Errorf("Replicated() = %d with replication 1, want 0", h.svc.Replicated())
	}
	ops := map[kv.Op]int{}
	for _, r := range replies {
		ops[r.op]++
		if r.rank != 1 {
			t.Errorf("reply delivered to rank %d, want the client rank 1", r.rank)
		}
		i := int(r.issued - 100)
		if i < 0 || i >= 4 || r.flags != int64(i%2) {
			t.Errorf("reply echoed (flags=%d, issued=%d); no request carried that pair", r.flags, r.issued)
		}
	}
	if ops[kv.OpGet] != 4 || ops[kv.OpPut] != 4 || ops[kv.OpScan] != 4 {
		t.Errorf("reply op mix %v, want 4 of each", ops)
	}
}

// TestReplicationAcksAfterFollowers pins the replication contract: each
// PUT writes Replication-1 follower copies, and the client's ack arrives
// only after they are all written.
func TestReplicationAcksAfterFollowers(t *testing.T) {
	h := newHarness(t, 4, 3)
	const puts = 5
	acked := 0
	h.svc.OnReply = func(rank int, op kv.Op, flags, issued int64) {
		acked++
		if want := int64(acked * 2); h.svc.Replicated() < want {
			t.Errorf("PUT %d acked with %d follower writes, want >= %d", acked, h.svc.Replicated(), want)
		}
	}
	var issue []func(p *am.Port, tk *sim.Task, k func())
	for i := 0; i < puts; i++ {
		key := uint64(i)
		issue = append(issue, func(p *am.Port, tk *sim.Task, k func()) {
			h.svc.PutTask(p, tk, key, 0, 0, k)
		})
	}
	h.run(t, issue)
	if got := h.svc.Replicated(); got != puts*2 {
		t.Errorf("Replicated() = %d, want %d (replication 3, %d PUTs)", got, puts*2, puts)
	}
}

// TestOpsUnderProxyScheds pins the service's semantic indifference to
// the proxy layer: with two proxies per node, every scheduling policy
// (including work stealing) must serve the same op counts and deliver
// every reply to the issuing client. Only timing may differ.
func TestOpsUnderProxyScheds(t *testing.T) {
	for _, sched := range []string{"static", "shard", "steal"} {
		t.Run(sched, func(t *testing.T) {
			h := newHarnessProxies(t, 3, 2, 2, sched)
			var issue []func(p *am.Port, tk *sim.Task, k func())
			for i := 0; i < 6; i++ {
				key := uint64(i * 37)
				issue = append(issue,
					func(p *am.Port, tk *sim.Task, k func()) { h.svc.GetTask(p, tk, key, 0, 0, k) },
					func(p *am.Port, tk *sim.Task, k func()) { h.svc.PutTask(p, tk, key, 0, 0, k) },
				)
			}
			h.run(t, issue)
			if got := h.svc.Served(kv.OpGet); got != 6 {
				t.Errorf("%s: Served(GET) = %d, want 6", sched, got)
			}
			if got := h.svc.Served(kv.OpPut); got != 6 {
				t.Errorf("%s: Served(PUT) = %d, want 6", sched, got)
			}
			if got := h.svc.Replicated(); got != 6 {
				t.Errorf("%s: Replicated() = %d, want 6 (replication 2, 6 PUTs)", sched, got)
			}
		})
	}
}

// Replication beyond the server count clamps instead of deadlocking.
func TestReplicationClampedToServers(t *testing.T) {
	h := newHarness(t, 2, 8)
	h.run(t, []func(p *am.Port, tk *sim.Task, k func()){
		func(p *am.Port, tk *sim.Task, k func()) { h.svc.PutTask(p, tk, 7, 0, 0, k) },
	})
	if got := h.svc.Replicated(); got != 1 {
		t.Errorf("Replicated() = %d, want 1 (2 servers, replication clamped to 2)", got)
	}
}

// closedLoop is a one-outstanding-request client whose continuations are
// bound once, so the pin below measures the service, not the driver.
type closedLoop struct {
	svc     *kv.Service
	port    *am.Port
	eng     *sim.Engine
	t       *sim.Task
	key     uint64
	sent    int
	replies int
	issueK  func()
	parkK   func()
}

// issue alternates replicated PUTs and GETs, parking until the reply.
func (c *closedLoop) issue() {
	c.sent++
	if c.sent%2 == 1 {
		c.svc.PutTask(c.port, c.t, c.key, 0, int64(c.eng.Now()), c.parkK)
	} else {
		c.svc.GetTask(c.port, c.t, c.key, 0, int64(c.eng.Now()), c.parkK)
	}
}

func (c *closedLoop) park() { c.t.Park(c.issueK) }

// TestAllocPinReplicatedPut pins the KV request path at zero: after a
// warm window, closed-loop PUTs at replication 2 (primary write, follower
// write and ack, client reply) interleaved with GETs must not allocate.
func TestAllocPinReplicatedPut(t *testing.T) {
	h := newHarness(t, 2, 2)
	c := &closedLoop{svc: h.svc, port: h.client, eng: h.eng}
	c.issueK, c.parkK = c.issue, c.park
	for h.svc.Primary(c.key) != h.servers[1] {
		c.key++ // the client shares node 0 with server 0; make the primary remote
	}
	h.svc.OnReply = func(int, kv.Op, int64, int64) {
		c.replies++
		h.eng.WakeTask(c.t)
	}
	h.eng.SpawnTaskDaemon("client.recv", func(tk *sim.Task) {
		h.client.ServeWhileTask(tk, func() bool { return false })
	})
	h.eng.SpawnTaskDaemon("client.issue", func(tk *sim.Task) {
		c.t = tk
		c.issue()
	})

	window := sim.Millisecond
	if err := h.eng.RunUntil(window); err != nil {
		t.Fatal(err)
	}
	if c.replies == 0 {
		t.Fatal("warmup completed no requests")
	}
	before := c.replies
	if got := testing.AllocsPerRun(100, func() {
		if err := h.eng.RunUntil(h.eng.Now() + window); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("steady-state replicated PUT/GET: %v allocs/window, want 0", got)
	}
	if c.replies == before {
		t.Fatal("pinned windows completed no requests")
	}
	if h.svc.Replicated() == 0 {
		t.Fatal("no follower writes: replication did not run")
	}
	h.eng.Shutdown()
}
