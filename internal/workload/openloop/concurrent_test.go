package openloop

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine/topo"
	"mproxy/internal/trace/flight"
)

// TestConcurrentPointsMatchSequential holds the load-point pool to the
// one-point-at-a-time sweep: a 64-node fat-tree ladder, with and without
// the flight recorder, gives the same Result at GOMAXPROCS 4 (one
// worker per point) as at GOMAXPROCS 1 (a single worker). Run under
// -race in CI, where the detector also watches every per-point stack.
func TestConcurrentPointsMatchSequential(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Nodes, cfg.Clients = 64, 1
	cfg.Requests, cfg.Warmup = 1200, 120
	cfg.LoadUs = []float64{160, 80, 40}
	for _, rec := range []bool{false, true} {
		c := cfg
		if rec {
			c.Flight = &flight.Config{TopK: 8}
		}
		run := func(procs int) Result {
			t.Helper()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := Run(c)
			if err != nil {
				t.Fatalf("flight=%v GOMAXPROCS=%d: %v", rec, procs, err)
			}
			return res
		}
		seq, conc := run(1), run(4)
		js, jc := resultJSON(t, seq), resultJSON(t, conc)
		if js != jc {
			t.Fatalf("flight=%v: concurrent sweep diverges from sequential:\nseq:  %s\nconc: %s", rec, js, jc)
		}
		for i := range seq.Points {
			fs, fc := seq.Points[i].Flight, conc.Points[i].Flight
			if rec && fs == nil {
				t.Fatalf("point %d: no flight data", i)
			}
			if !reflect.DeepEqual(fs, fc) {
				t.Errorf("flight=%v point %d: flight harvest diverges", rec, i)
			}
		}
	}
}

func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestValidateRejectsBeforeRunning checks the configs that used to panic
// deep inside a load point — a zero Arch ("machine: negative compute
// time"), an unknown proxy policy, a 1-node fat-tree or dragonfly
// ("topo: fat-tree needs >= 2 nodes") — and non-positive load points
// come back from Run as errors, before any point starts.
func TestValidateRejectsBeforeRunning(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"zero arch":        func(c *Config) { c.Arch = arch.Params{} },
		"zero speed":       func(c *Config) { c.Arch.Speed = 0 },
		"negative miss":    func(c *Config) { c.Arch.CacheMiss = -1 },
		"bad sched":        func(c *Config) { c.ProxySched = "nope" },
		"negative proxy":   func(c *Config) { c.Proxies = -1 },
		"zero load":        func(c *Config) { c.LoadUs = []float64{40, 0} },
		"negative load":    func(c *Config) { c.LoadUs = []float64{-5} },
		"negative warm":    func(c *Config) { c.Warmup = -1 },
		"unknown topo":     func(c *Config) { c.Topo = "no-such-topology" },
		"1-node fat-tree":  func(c *Config) { c.Nodes, c.Topo = 1, "fat-tree" },
		"1-node dragonfly": func(c *Config) { c.Nodes, c.Topo = 1, "dragonfly" },
	} {
		cfg := smokeConfig(t)
		cfg.Nodes = 4
		cfg.LoadUs = []float64{100}
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", name)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Run panicked: %v", name, r)
				}
			}()
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s: Run accepted the config", name)
			}
		}()
	}
	if err := smokeConfig(t).Validate(); err != nil {
		t.Errorf("smoke config rejected: %v", err)
	}
}

// TestRunReportsLowestFailingPoint checks a sweep whose every point
// fails returns the first point's error, as the sequential loop did.
// Validate rejects every bad config up front, so the failure is injected
// through the point's graph constructor.
func TestRunReportsLowestFailingPoint(t *testing.T) {
	defer func(orig func(string, int) (topo.Graph, error)) { pointGraph = orig }(pointGraph)
	pointGraph = func(string, int) (topo.Graph, error) { return topo.Graph{}, errors.New("injected failure") }
	cfg := smokeConfig(t)
	cfg.LoadUs = []float64{40, 20, 10, 5}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "load point 40 us") {
		t.Fatalf("err = %v, want the 40 us point's error", err)
	}
}
