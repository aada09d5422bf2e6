package am

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/sim"
)

// TestAllocPinTaskRound pins the task-side active-message path at zero: a
// steady-state SendTask request/reply between two ServeWhileTask loops —
// send frame, record marshalled into a pooled buffer, ENQ through the
// command queue and proxies, delivery into the remote queue, serve-loop
// dispatch into per-port decode scratch, and the record's release into
// the receiving port's pool — must not allocate once the pools, frames
// and rings have grown during the warm window.
func TestAllocPinTaskRound(t *testing.T) {
	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("unknown arch MP1")
	}
	eng, _, l := build(2, a)
	payload := make([]byte, 48)
	rounds := 0
	var hPing, hPong int
	hPing = l.RegisterTask(func(p *Port, tk *sim.Task, src int, args []int64, payload []byte, k func()) {
		p.SendTask(tk, src, hPong, args, payload, k)
	})
	hPong = l.RegisterTask(func(p *Port, tk *sim.Task, src int, args []int64, payload []byte, k func()) {
		rounds++
		p.SendTask(tk, src, hPing, args, payload, k)
	})
	never := func() bool { return false }
	srv, cli := l.Port(1), l.Port(0)
	eng.SpawnTaskDaemon("am.server", func(tk *sim.Task) { srv.ServeWhileTask(tk, never) })
	eng.SpawnTaskDaemon("am.client", func(tk *sim.Task) {
		cli.SendTask(tk, 1, hPing, []int64{1, 2}, payload, func() { cli.ServeWhileTask(tk, never) })
	})

	window := sim.Millisecond
	if err := eng.RunUntil(window); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("warmup completed no round trips")
	}
	before := rounds
	if got := testing.AllocsPerRun(100, func() {
		if err := eng.RunUntil(eng.Now() + window); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("steady-state AM round trips: %v allocs/window, want 0", got)
	}
	if rounds == before {
		t.Fatal("pinned windows completed no round trips")
	}
	eng.Shutdown()
}
