package machine

import (
	"testing"

	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// scriptPlane is a FaultPlane scripted per packet sequence number.
type scriptPlane struct {
	packet map[uint64]PacketFate
	agent  map[int64]AgentFate
}

func (s scriptPlane) PacketFate(link string, node int, seq uint64, now sim.Time) PacketFate {
	return s.packet[seq]
}

func (s scriptPlane) AgentFault(agent string, item int64, now sim.Time) AgentFate {
	return s.agent[item]
}

// recordSink records every delivery a Link makes: its arg, its fate and
// the simulated arrival time.
type recordSink struct {
	eng *sim.Engine
	got []arrival
}

type arrival struct {
	arg  any
	fate PacketFate
	at   sim.Time
}

func (s *recordSink) DeliverPacket(arg any, fate PacketFate) {
	s.got = append(s.got, arrival{arg, fate, s.eng.Now()})
}

func TestLinkFaultDispatch(t *testing.T) {
	eng := sim.NewEngine()
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	l := NewLink(eng, "test.out", 100, 10*sim.Microsecond)
	l.SetFaultPlane(scriptPlane{packet: map[uint64]PacketFate{
		1: {Drop: true},
		2: {Down: true},
		3: {Corrupt: true, CorruptBit: 5},
		4: {Dup: true, DupDelay: 3 * sim.Microsecond},
		5: {Delay: 40 * sim.Microsecond},
	}}, 0)

	sink := &recordSink{eng: eng}
	for seq := 0; seq < 6; seq++ {
		l.SendToSink(0, sink, seq)
	}
	eng.Spawn("idle", func(p *sim.Proc) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// 0 clean, 1 dropped, 2 down, 3 corrupt, 4 twice, 5 delayed last.
	got := sink.got
	want := []struct {
		seq     int
		corrupt bool
	}{{0, false}, {3, true}, {4, false}, {4, false}, {5, false}}
	if len(got) != len(want) {
		t.Fatalf("arrivals = %+v, want %d", got, len(want))
	}
	for i, w := range want {
		if got[i].arg != w.seq || got[i].fate.Corrupt != w.corrupt {
			t.Errorf("arrival %d = %+v, want seq %d corrupt %v", i, got[i], w.seq, w.corrupt)
		}
	}
	if got[1].fate.CorruptBit != 5 {
		t.Errorf("corrupt fate = %+v, want CorruptBit 5 passed to the sink", got[1].fate)
	}
	if got[3].fate != (PacketFate{}) {
		t.Errorf("duplicate fate = %+v, want clean", got[3].fate)
	}
	if got[3].at-got[2].at != 3*sim.Microsecond {
		t.Errorf("duplicate spacing = %v, want 3us", got[3].at-got[2].at)
	}
	if got[4].at <= got[3].at {
		t.Error("reordered packet was not overtaken")
	}
	if l.Lost() != 3 {
		t.Errorf("Lost() = %d, want 3 (drop + down + corrupt)", l.Lost())
	}

	var drops, downs int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KDrop:
			drops++
			if ev.Comp != "test.out" || ev.Arg != 1 {
				t.Errorf("drop event = %+v", ev)
			}
		case trace.KLinkDown:
			downs++
			if ev.Arg != 2 {
				t.Errorf("link-down event = %+v", ev)
			}
		}
	}
	if drops != 1 || downs != 1 {
		t.Errorf("drop/down events = %d/%d, want 1/1", drops, downs)
	}
}

func TestLinkWithoutPlaneIsClean(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "clean.out", 100, sim.Microsecond)
	sink := &recordSink{eng: eng}
	for i := 0; i < 10; i++ {
		l.SendToSink(64, sink, i)
	}
	eng.Spawn("idle", func(p *sim.Proc) {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range sink.got {
		if a.arg != i || a.fate != (PacketFate{}) {
			t.Errorf("clean link delivery %d = %+v, want arg %d with a clean fate", i, a, i)
		}
	}
	if len(sink.got) != 10 || l.Lost() != 0 {
		t.Errorf("delivered %d (lost %d), want 10 (0)", len(sink.got), l.Lost())
	}
}

func TestAgentStallAndRestart(t *testing.T) {
	agentCase(t, func(t *testing.T, eng *sim.Engine) {
		rec := &trace.Recorder{}
		eng.SetTracer(rec)
		a := NewAgent(eng, "test.proxy", 0)
		a.SetFaultPlane(scriptPlane{agent: map[int64]AgentFate{
			1: {Stall: 100 * sim.Microsecond},
			2: {Stall: 50 * sim.Microsecond, Restart: true},
		}})
		restarts := 0
		a.OnRestart(func() { restarts++ })

		var done []sim.Time
		eng.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				a.Submit(holdWork(sim.Microsecond, func(now sim.Time) { done = append(done, now) }))
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(done) != 3 {
			t.Fatalf("served %d items, want 3", len(done))
		}
		// Item 1 was stalled 100us; item 2 another 50us on top.
		if d := done[1] - done[0]; d < 100*sim.Microsecond {
			t.Errorf("stall not applied: item gap %v", d)
		}
		if restarts != 1 || a.Restarts() != 1 {
			t.Errorf("restarts = %d / %d, want 1", restarts, a.Restarts())
		}
		if a.Stalls() != 2 {
			t.Errorf("Stalls() = %d, want 2", a.Stalls())
		}
		stallEvents := 0
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KStall && ev.Comp == "test.proxy" {
				stallEvents++
			}
		}
		if stallEvents != 2 {
			t.Errorf("stall trace events = %d, want 2", stallEvents)
		}
	})
}
