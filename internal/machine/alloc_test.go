package machine

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/sim"
)

// Steady-state allocation pins for the converted run-to-completion paths.
// The engine core is already pinned at zero in internal/sim; these guard
// the next layer up — the agent service loop and the link sink path —
// which the proxy hot paths are built from.

func pinAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, got)
	}
}

// TestAllocPinTaskAgentServe: submit → dequeue → notice → serve → done on
// an agent must not allocate once the work FIFO has grown.
func TestAllocPinTaskAgentServe(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAgent(eng, "ag", 0)
	served := 0
	w := Work{TFn: func(a *Agent, _ any) {
		served++
		a.WorkDone()
	}}
	for i := 0; i < 8; i++ { // warm FIFO and event queues
		a.Submit(w)
	}
	if err := eng.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if served != 8 {
		t.Fatalf("warmup served %d of 8", served)
	}
	pinAllocs(t, "task agent submit+serve", func() {
		a.Submit(w)
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	eng.Shutdown()
}

// TestAllocPinLinkSink: the callback-free packet delivery path
// (SendToSink through the recycled delivery node) must not allocate in
// steady state.
func TestAllocPinLinkSink(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "nic", 100, sim.Microsecond)
	sink := &countSink{}
	for i := 0; i < 8; i++ { // warm the delivery freelist
		l.SendToSink(64, sink, nil)
	}
	if err := eng.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.n != 8 {
		t.Fatalf("warmup delivered %d of 8", sink.n)
	}
	pinAllocs(t, "SendToSink+deliver", func() {
		l.SendToSink(64, sink, nil)
		if err := eng.RunUntil(eng.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	eng.Shutdown()
}

type countSink struct{ n int }

func (s *countSink) DeliverPacket(arg any, fate PacketFate) { s.n++ }

// computeLoop charges back-to-back d-long ComputeTask intervals on cpu
// from one task, recording each interval's end; its continuation is
// bound once so the pin below measures only the CPU's frames.
type computeLoop struct {
	cpu  *CPU
	t    *sim.Task
	d    sim.Time
	ends []sim.Time
	k    func()
}

func (l *computeLoop) next() {
	l.ends = append(l.ends, l.t.Now())
	l.cpu.ComputeTask(l.t, l.d, l.k)
}

// TestAllocPinComputeTaskOverlap: two tasks sharing a CPU hold
// overlapping compute intervals (a client's issuer and reply receiver do
// this), so each interval needs its own frame. Both must finish on their
// own schedules, and once the CPU's frames exist, charging allocates
// nothing.
func TestAllocPinComputeTaskOverlap(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, Config{Nodes: 1, ProcsPerNode: 1}, arch.MP1).CPUs[0]
	long := &computeLoop{cpu: cpu, d: 100, ends: make([]sim.Time, 0, 1<<12)}
	short := &computeLoop{cpu: cpu, d: 30, ends: make([]sim.Time, 0, 1<<12)}
	for _, l := range []*computeLoop{long, short} {
		l.k = l.next
		eng.SpawnTaskDaemon("compute", func(tk *sim.Task) {
			l.t = tk
			cpu.ComputeTask(tk, l.d, l.k)
		})
	}
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*computeLoop{long, short} {
		for i, end := range l.ends {
			if want := sim.Time(i+1) * l.d; end != want {
				t.Fatalf("%v-long interval %d ended at %v, want %v", l.d, i, end, want)
			}
		}
	}
	if len(short.ends) < 3*len(long.ends) {
		t.Fatalf("short task finished %d intervals to the long one's %d: intervals serialized", len(short.ends), len(long.ends))
	}
	pinAllocs(t, "overlapping ComputeTask", func() {
		if err := eng.RunUntil(eng.Now() + 300); err != nil {
			t.Fatal(err)
		}
	})
	eng.Shutdown()
}
