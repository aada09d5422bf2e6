package arch

import (
	"testing"

	"mproxy/internal/sim"
)

func TestAllDesignPoints(t *testing.T) {
	if len(All) != 6 {
		t.Fatalf("design points = %d", len(All))
	}
	order := []string{"HW0", "HW1", "MP0", "MP1", "MP2", "SW1"}
	for i, a := range All {
		if a.Name != order[i] {
			t.Fatalf("order[%d] = %s", i, a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	a, ok := ByName("MP2")
	if !ok || a.Name != "MP2" || a.Kind != Proxy {
		t.Fatalf("MP2 lookup = %+v %v", a, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom design point")
	}
}

func TestKindStrings(t *testing.T) {
	if CustomHW.String() != "custom-hardware" || Proxy.String() != "message-proxy" ||
		Syscall.String() != "system-call" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still format")
	}
}

func TestPollDelayFormula(t *testing.T) {
	// P = PollBase + 2*AgentMiss: 3.0us on MP0 (the measured Table 1
	// value), 3.0 on MP1, 1.5 on MP2 (cache update shrinks the scan).
	if got := MP0.PollDelay(); got != sim.Micros(3.0) {
		t.Errorf("MP0 P = %v", got)
	}
	if got := MP1.PollDelay(); got != sim.Micros(3.0) {
		t.Errorf("MP1 P = %v", got)
	}
	if got := MP2.PollDelay(); got != sim.Micros(1.5) {
		t.Errorf("MP2 P = %v", got)
	}
	// Non-proxy architectures have no polling delay.
	if HW1.PollDelay() != 0 || SW1.PollDelay() != 0 {
		t.Error("non-proxy P must be zero")
	}
}

func TestInstrScalesWithSpeed(t *testing.T) {
	if got := MP0.Instr(1.0); got != sim.Micros(1.0) {
		t.Errorf("S=1 instr = %v", got)
	}
	if got := MP1.Instr(1.0); got != sim.Micros(0.5) {
		t.Errorf("S=2 instr = %v", got)
	}
}

func TestXferTime(t *testing.T) {
	// 4096 bytes at 150 MB/s = 27.31 us.
	got := XferTime(4096, 150)
	want := sim.Micros(4096.0 / 150.0)
	if got != want {
		t.Errorf("xfer = %v, want %v", got, want)
	}
	if XferTime(0, 150) != 0 || XferTime(100, 0) != 0 {
		t.Error("degenerate transfers must cost nothing")
	}
}

func TestPages(t *testing.T) {
	a := MP1
	cases := map[int]int{0: 0, 1: 1, 4096: 1, 4097: 2, 8192: 2, 3 * 4096: 3}
	for n, want := range cases {
		if got := a.Pages(n); got != want {
			t.Errorf("pages(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDesignPointInvariants(t *testing.T) {
	for _, a := range All {
		if a.CacheMiss <= 0 || a.Uncached <= 0 || a.Speed <= 0 {
			t.Errorf("%s: non-positive primitives", a.Name)
		}
		if a.AgentMiss > a.CacheMiss {
			t.Errorf("%s: agent miss exceeds cache miss", a.Name)
		}
		if a.DMABW <= 0 || a.NetBW <= 0 || a.PIOBW <= 0 || a.MemBW <= 0 {
			t.Errorf("%s: non-positive bandwidths", a.Name)
		}
		if a.NetBW < a.DMABW {
			t.Errorf("%s: network slower than DMA would double-serialize pages", a.Name)
		}
		switch a.Kind {
		case CustomHW:
			if !a.Prepinned || a.PinPerPage != 0 {
				t.Errorf("%s: custom hardware must be pre-pinned", a.Name)
			}
			if a.AdapterOvh <= 0 {
				t.Errorf("%s: missing adapter overhead", a.Name)
			}
		case Proxy:
			if a.Prepinned || a.PinPerPage <= 0 {
				t.Errorf("%s: proxies pin dynamically", a.Name)
			}
			if a.VMAtt <= 0 {
				t.Errorf("%s: proxies pay vm_att", a.Name)
			}
		case Syscall:
			if a.SyscallOvh <= 0 || a.InterruptOvh <= 0 {
				t.Errorf("%s: missing protection overheads", a.Name)
			}
		}
		if a.PageSize != 4096 || a.PIOCutoff <= 0 || a.PIOCutoff > a.PageSize {
			t.Errorf("%s: page/PIO configuration out of range", a.Name)
		}
	}
}

func TestGenerationOrdering(t *testing.T) {
	// Next-generation points are uniformly faster in bandwidth and
	// latency than today's.
	if !(HW1.DMABW > HW0.DMABW && MP1.DMABW > MP0.DMABW) {
		t.Error("DMA bandwidth must improve across generations")
	}
	if !(MP1.NetLatency < MP0.NetLatency) {
		t.Error("network latency must improve across generations")
	}
	// MP2 differs from MP1 only in the agent-miss latency.
	mp2 := MP2
	mp2.Name = MP1.Name
	mp2.AgentMiss = MP1.AgentMiss
	if mp2 != MP1 {
		t.Error("MP2 must be MP1 plus the cache-update primitive only")
	}
}

func TestValidate(t *testing.T) {
	for _, a := range All {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	for name, mut := range map[string]func(*Params){
		"zero":           func(p *Params) { *p = Params{} },
		"unknown kind":   func(p *Params) { p.Kind = Syscall + 1 },
		"zero speed":     func(p *Params) { p.Speed = 0 },
		"zero page":      func(p *Params) { p.PageSize = 0 },
		"negative wire":  func(p *Params) { p.NetLatency = -1 },
		"negative bw":    func(p *Params) { p.NetBW = -1 },
		"negative cache": func(p *Params) { p.CacheMiss = -sim.Micros(1) },
	} {
		p := MP1
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, p)
		}
	}
}
