package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mproxy/internal/am"
	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
	"mproxy/internal/trace/metrics"
	"mproxy/internal/workload"
)

// smpApps is the Figure 9 configuration run sequentially: every app on
// every design point at Small scale on nodes x ppn processors. One pass
// over the matrix is the unit of work the timed pass repeats. The apps
// use the registry's fixed inputs, so the seed does not reach them.
type smpApps struct {
	names     []string
	archs     []string
	cfg       machine.Config
	setupReps int
}

var appsSMP = smpApps{
	names:     []string{"LU", "Barnes-Hut", "Water", "Sample", "Wator"},
	archs:     []string{"MP1", "SW1"},
	cfg:       machine.Config{Nodes: 4, ProcsPerNode: 4},
	setupReps: 5,
}

// cell is one app on one design point.
type cell struct {
	app  registry.Spec
	arch arch.Params
}

func (s smpApps) cells() ([]cell, error) {
	var out []cell
	for _, n := range s.names {
		spec, err := registry.ByName(n)
		if err != nil {
			return nil, err
		}
		for _, an := range s.archs {
			a, ok := arch.ByName(an)
			if !ok {
				return nil, fmt.Errorf("unknown design point %s", an)
			}
			out = append(out, cell{spec, a})
		}
	}
	return out, nil
}

// passResult is one pass's simulated outcome and host cost.
type passResult struct {
	simTimes  []sim.Time // measured-phase time per cell
	ops       int64      // comm operations over all cells
	bytes     int64      // comm payload bytes over all cells
	intra     int64      // comm operations that stayed inside a node
	events    uint64     // engine events scheduled over all cells
	agentUtil float64    // busiest agent's utilization over all cells
	wall      float64    // host seconds inside apps.Run
	allocs    uint64     // heap allocations inside apps.Run
}

// pass runs every cell once with opt, timing apps.Run only: each
// environment is built, after a full GC, outside the timed region.
func (s smpApps) pass(cells []cell, opt apps.EnvOptions, r *report, run string) (passResult, error) {
	var pr passResult
	for _, c := range cells {
		runtime.GC()
		env := apps.NewEnvWith(s.cfg, c.arch, workload.DefaultHeapBytes, opt)
		app := c.app.New(registry.Small)
		m0, _ := mallocs()
		t0 := time.Now()
		elapsed, err := apps.Run(env, app)
		pr.wall += time.Since(t0).Seconds()
		m1, _ := mallocs()
		pr.allocs += m1 - m0
		bad := int64(0)
		if err != nil {
			bad = 1
		}
		r.check(1, bad, "%s: %s on %s: %v", run, c.app.Name, c.arch.Name, err)
		pr.simTimes = append(pr.simTimes, elapsed)
		st := env.Fab.Stats()
		pr.ops += st.TotalOps()
		for _, b := range st.Bytes {
			pr.bytes += b
		}
		pr.intra += st.Intra
		pr.events += env.Eng.Scheduled()
		now := env.Eng.Now()
		for _, nd := range env.Cl.Nodes {
			for _, ag := range nd.Agents {
				pr.agentUtil = math.Max(pr.agentUtil, ag.Utilization(now))
			}
		}
	}
	if pr.ops == 0 {
		return pr, fmt.Errorf("%s: no comm operations", run)
	}
	return pr, nil
}

// simView is the part of a pass that must repeat exactly for a seed.
func (pr passResult) simView() any {
	return struct {
		SimTimes          []sim.Time
		Ops, Bytes, Intra int64
		Events            uint64
		AgentUtil         float64
	}{pr.simTimes, pr.ops, pr.bytes, pr.intra, pr.events, pr.agentUtil}
}

// envSpans are the host seconds of one pass's stack builds: the whole
// apps.NewEnvWith per cell, and the machine, comm and am constructors
// it starts with, timed on their own.
type envSpans struct{ env, machine, comm, am float64 }

// setup measures one pass's stack builds setupReps times and returns the
// medians. Every build starts after a full GC.
func (s smpApps) setup(cells []cell) envSpans {
	var env, m, c, a []float64
	for rep := 0; rep < s.setupReps; rep++ {
		var sum envSpans
		for _, cl := range cells {
			runtime.GC()
			t0 := time.Now()
			apps.NewEnvWith(s.cfg, cl.arch, workload.DefaultHeapBytes, apps.EnvOptions{})
			sum.env += time.Since(t0).Seconds()

			runtime.GC()
			eng := sim.NewEngine()
			t1 := time.Now()
			mc := machine.New(eng, s.cfg, cl.arch)
			t2 := time.Now()
			f := comm.NewWith(mc, comm.Options{})
			t3 := time.Now()
			am.New(f)
			t4 := time.Now()
			sum.machine += t2.Sub(t1).Seconds()
			sum.comm += t3.Sub(t2).Seconds()
			sum.am += t4.Sub(t3).Seconds()
		}
		env, m, c, a = append(env, sum.env), append(m, sum.machine), append(c, sum.comm), append(a, sum.am)
	}
	return envSpans{median(env), median(m), median(c), median(a)}
}

func (s smpApps) timed(p params, r *report) error {
	cells, err := s.cells()
	if err != nil {
		return err
	}
	sp := s.setup(cells)
	var first passResult
	var firstDigest string
	var allocs []float64
	walls, err := repeat(p.seconds, 3, func(rep int) (float64, error) {
		pr, err := s.pass(cells, apps.EnvOptions{}, r, fmt.Sprintf("rep %d", rep))
		if err != nil {
			return 0, err
		}
		allocs = append(allocs, float64(pr.allocs)/float64(pr.ops))
		d, err := digest(pr.simView())
		if err != nil {
			return 0, err
		}
		if rep == 0 {
			first, firstDigest = pr, d
		} else if d != firstDigest {
			r.check(0, int64(len(cells)), "rep %d: simulated results differ from rep 0", rep)
		}
		return pr.wall, nil
	})
	if err != nil {
		return err
	}
	wall := median(walls)
	var simSum float64
	us := make([]float64, len(first.simTimes))
	for i, t := range first.simTimes {
		us[i] = t.Micros()
		simSum += t.Micros()
	}
	sort.Float64s(us)
	r.note("sim digest: sha256:%s (%d reps)", firstDigest, len(walls))
	r.set("wall_s", wall)
	r.set("setup_s", sp.env)
	r.set("sim_reqs_per_host_s", float64(first.ops)/wall)
	r.set("peak_rss_mb", peakRSSMB())
	r.set("allocs_per_op", median(allocs))
	// Per-run measured-phase times stand in for request latency: their
	// median, and the largest (the p99 of ten runs).
	r.set("sim_p50_us", median(us))
	r.set("sim_p99_us", us[len(us)-1])
	r.set("sim_sat_rps", float64(first.ops)/(simSum/1e6))
	r.set("sim_time_ms", simSum/1e3)
	return nil
}

func (s smpApps) traced(p params, r *report) error {
	cells, err := s.cells()
	if err != nil {
		return err
	}
	sp := s.setup(cells)
	r.set("setup.machine_s", sp.machine)
	r.set("setup.comm_s", sp.comm)
	r.set("setup.am_s", sp.am)
	r.zero("setup.topo_s", "setup.kv_s")
	r.set("setup.env_s", sp.env)

	gc0, cpu0 := runtimeCPU()
	_, b0 := mallocs()
	base, err := s.pass(cells, apps.EnvOptions{}, r, "base")
	if err != nil {
		return err
	}
	_, b1 := mallocs()
	gc1, cpu1 := runtimeCPU()
	baseDigest, err := digest(base.simView())
	if err != nil {
		return err
	}
	r.note("sim digest: sha256:%s", baseDigest)
	ops := float64(base.ops)
	same := func(run string, pr passResult) error {
		d, err := digest(pr.simView())
		if err != nil {
			return err
		}
		bad := int64(0)
		if d != baseDigest {
			bad = int64(len(cells))
		}
		r.check(int64(len(cells)), bad, "%s: simulated results differ from the untraced pass", run)
		return nil
	}

	// A pass runs about a second, so profile three of them to get some 300
	// samples at the profiler's 100 Hz.
	if err := hostShares(r, func() error {
		for i := 0; i < 3; i++ {
			pr, err := s.pass(cells, apps.EnvOptions{}, r, "profiled")
			if err != nil {
				return err
			}
			if err := same("profiled", pr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One collector sees every cell's engine through EnvOptions.Tracer;
	// the cells run one after another, so it is never shared concurrently.
	coll := metrics.NewCollector()
	traced, err := s.pass(cells, apps.EnvOptions{Tracer: coll}, r, "traced")
	if err != nil {
		return err
	}
	if err := same("traced", traced); err != nil {
		return err
	}
	counts := setCounts(r, coll.Snapshot(), ops, base.wall)
	cd, err := digest(counts)
	if err != nil {
		return err
	}
	r.note("count digest: sha256:%s", cd)
	r.set("comm.bytes_per_op", float64(base.bytes)/ops)
	r.set("comm.intra_share", float64(base.intra)/ops)
	r.set("trace.overhead_pct", 100*(traced.wall/base.wall-1))
	r.set("machine.proxy_util_max", base.agentUtil)
	// The apps run on the flat single-switch model with no KV service, no
	// flight recorder and no parallel side-run.
	r.zero("topo.mean_hops", "topo.tier_util_max", "kv.replicated_per_put",
		"flight.backlog_share", "flight.req_wire_share", "flight.primary_share",
		"flight.replica_wait_share", "flight.reply_wire_share",
		"par.speedup_2", "par.blocked_per_busy", "par.windows_per_crossing")
	r.set("gc.cpu_share", ratio(gc1-gc0, cpu1-cpu0))
	r.set("alloc.bytes_per_op", float64(b1-b0)/ops)
	return ladder(r)
}
