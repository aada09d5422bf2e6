package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/scenario"
	"mproxy/internal/sim"
	"mproxy/internal/trace/flight"
	"mproxy/internal/trace/metrics"
	"mproxy/internal/workload/openloop"
)

// serving is an open-loop KV workload: one openloop.Run sweep of its load
// ladder is the unit of work the timed pass repeats.
type serving struct {
	cfg       openloop.Config // everything but the seed
	setupReps int             // stack builds per setup measurement
	parShards int             // shards of the traced pass's parallel side-run; 0 = none
}

var serve1k = serving{
	cfg: openloop.Config{
		Nodes: 1024, Clients: 1, Proxies: 1, ProxySched: "static",
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 64, ScanCount: 16, Replication: 2,
		Keys: 1 << 16, Theta: 0.5, Arrival: "poisson",
		Requests: 30_000, Warmup: 3_000,
		LoadUs: []float64{160, 80, 40},
	},
	setupReps: 11,
	parShards: 2,
}

var serveHot = serving{
	cfg: openloop.Config{
		Nodes: 16, Clients: 3, Proxies: 2, ProxySched: "steal",
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 256, ScanCount: 16, Replication: 3,
		Keys: 4096, Theta: 0.99, Arrival: "poisson",
		Requests: 50_000, Warmup: 5_000,
		LoadUs: []float64{640, 320},
	},
	setupReps: 201,
}

func (s serving) config(seed uint64) (openloop.Config, error) {
	a, ok := arch.ByName("MP1")
	if !ok {
		return openloop.Config{}, fmt.Errorf("unknown design point MP1")
	}
	cfg := s.cfg
	cfg.Arch = a
	// The generators get seed+1: a scenario spec reads seed 0 as "the
	// default, 1", and the traced pass replays the sweep as a scenario, so
	// the offset keeps every benchmark seed, 0 included, a distinct input.
	cfg.Seed = seed + 1
	return cfg, nil
}

// stackSpans are the host seconds of each layer constructor of one
// serving stack, built in openloop's order.
type stackSpans struct{ machine, topo, comm, am, kv float64 }

// buildStack builds one load point's simulated stack the way openloop
// does and times each constructor.
func buildStack(cfg openloop.Config) (stackSpans, error) {
	var sp stackSpans
	eng := sim.NewEngine()
	ppn := 1 + cfg.Clients
	t0 := time.Now()
	cl := machine.New(eng, machine.Config{
		Nodes: cfg.Nodes, ProcsPerNode: ppn,
		ProxiesPerNode: cfg.Proxies, ProxySched: cfg.ProxySched,
	}, cfg.Arch)
	t1 := time.Now()
	g, err := topo.ByName(cfg.Topo, cfg.Nodes)
	if err != nil {
		return sp, err
	}
	cl.SetInterconnect(topo.NewNet(cl, g))
	t2 := time.Now()
	f := comm.NewWith(cl, comm.Options{CommandQueueCap: cfg.CommandQueueCap})
	t3 := time.Now()
	l := am.New(f)
	t4 := time.Now()
	servers := make([]int, cfg.Nodes)
	for n := range servers {
		servers[n] = n * ppn
	}
	kv.New(l, kv.Config{
		Servers: servers, ValueBytes: cfg.ValueBytes,
		ScanCount: cfg.ScanCount, Replication: cfg.Replication,
	})
	t5 := time.Now()
	sp.machine = t1.Sub(t0).Seconds()
	sp.topo = t2.Sub(t1).Seconds()
	sp.comm = t3.Sub(t2).Seconds()
	sp.am = t4.Sub(t3).Seconds()
	sp.kv = t5.Sub(t4).Seconds()
	return sp, nil
}

// setup measures the host seconds to build one sweep's stacks (one per
// load point), setupReps times. It returns the median per layer and the
// median of the totals. Each build starts after a full GC.
func (s serving) setup(cfg openloop.Config) (stackSpans, float64, error) {
	var m, tp, c, a, k, total []float64
	for rep := 0; rep < s.setupReps; rep++ {
		var sum stackSpans
		for range cfg.LoadUs {
			runtime.GC()
			sp, err := buildStack(cfg)
			if err != nil {
				return sum, 0, err
			}
			sum.machine += sp.machine
			sum.topo += sp.topo
			sum.comm += sp.comm
			sum.am += sp.am
			sum.kv += sp.kv
		}
		m, tp, c, a, k = append(m, sum.machine), append(tp, sum.topo),
			append(c, sum.comm), append(a, sum.am), append(k, sum.kv)
		total = append(total, sum.machine+sum.topo+sum.comm+sum.am+sum.kv)
	}
	return stackSpans{median(m), median(tp), median(c), median(a), median(k)}, median(total), nil
}

// conserve checks that every issued request resolved exactly once: each
// point measured exactly its quota, every measured reply is a GET, PUT or
// SCAN, and the sweep issued quota plus warmup at every point.
func conserve(r *report, cfg openloop.Config, res openloop.Result, run string) {
	if len(res.Points) != len(cfg.LoadUs) {
		r.check(int64(cfg.Requests*len(cfg.LoadUs)), int64(cfg.Requests*len(cfg.LoadUs)),
			"%s: %d of %d load points", run, len(res.Points), len(cfg.LoadUs))
		return
	}
	for _, pt := range res.Points {
		want := int64(cfg.Requests)
		got := int64(pt.Latency.Count)
		bad := abs(want-got) + abs(got-(pt.Gets+pt.Puts+pt.Scans)) + abs(pt.Issued-want-int64(cfg.Warmup))
		r.check(want, min(bad, want), "%s @%gus: %d replies measured, %d gets+puts+scans, %d issued; want %d and %d issued",
			run, pt.LoadUs, got, pt.Gets+pt.Puts+pt.Scans, pt.Issued, want, want+int64(cfg.Warmup))
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// simDigest fingerprints a sweep's simulated results (latency
// histograms, op and replication counts, utilizations, simulated time),
// leaving out the parallel executor's host-time statistics.
func simDigest(res openloop.Result) (string, error) {
	pts := append([]openloop.Point(nil), res.Points...)
	for i := range pts {
		pts[i].Par = nil
	}
	res.Points = pts
	return digest(res)
}

// kneePoint returns the sweep's knee point (openloop's saturation rule).
func kneePoint(res openloop.Result) openloop.Point {
	for _, pt := range res.Points {
		if pt.LoadUs == res.KneeLoadUs {
			return pt
		}
	}
	return res.Points[0]
}

func (s serving) timed(p params, r *report) error {
	cfg, err := s.config(p.seed)
	if err != nil {
		return err
	}
	_, setupS, err := s.setup(cfg)
	if err != nil {
		return err
	}
	var first openloop.Result
	var firstDigest string
	var allocs []float64
	walls, err := repeat(p.seconds, 3, func(rep int) (float64, error) {
		var res openloop.Result
		m0, _ := mallocs()
		wall, err := clock(func() (err error) {
			res, err = openloop.Run(cfg)
			return err
		})
		m1, _ := mallocs()
		if err != nil {
			return 0, err
		}
		conserve(r, cfg, res, fmt.Sprintf("rep %d", rep))
		allocs = append(allocs, float64(m1-m0)/float64(res.TotalIssued))
		d, err := simDigest(res)
		if err != nil {
			return 0, err
		}
		if rep == 0 {
			first, firstDigest = res, d
		} else if d != firstDigest {
			r.check(0, int64(cfg.Requests*len(cfg.LoadUs)), "rep %d: simulated results differ from rep 0", rep)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	wall := median(walls)
	m := simOf(first)
	r.note("sim digest: sha256:%s (%d reps, knee at %g us/client)", firstDigest, len(walls), m.KneeLoadUs)
	r.set("wall_s", wall)
	r.set("setup_s", setupS)
	r.set("sim_reqs_per_host_s", float64(first.TotalIssued)/wall)
	r.set("peak_rss_mb", peakRSSMB())
	r.set("allocs_per_op", median(allocs))
	r.set("sim_p50_us", m.P50Us)
	r.set("sim_p99_us", m.P99Us)
	r.set("sim_sat_rps", m.SatRPS)
	r.set("sim_time_ms", m.SimTimeUs/1e3)
	return nil
}

func (s serving) traced(p params, r *report) error {
	cfg, err := s.config(p.seed)
	if err != nil {
		return err
	}
	sp, _, err := s.setup(cfg)
	if err != nil {
		return err
	}
	r.set("setup.machine_s", sp.machine)
	r.set("setup.topo_s", sp.topo)
	r.set("setup.comm_s", sp.comm)
	r.set("setup.am_s", sp.am)
	r.set("setup.kv_s", sp.kv)
	r.zero("setup.env_s")
	measured := int64(cfg.Requests * len(cfg.LoadUs))

	// Untraced base sweep: the reference for every later run's simulated
	// results, the tracing overhead and the parallel speedup.
	runtime.GC()
	gc0, cpu0 := runtimeCPU()
	_, b0 := mallocs()
	var base openloop.Result
	baseWall, err := clock(func() (err error) {
		base, err = openloop.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	_, b1 := mallocs()
	gc1, cpu1 := runtimeCPU()
	conserve(r, cfg, base, "base")
	baseDigest, err := simDigest(base)
	if err != nil {
		return err
	}
	ops := float64(base.TotalIssued)
	r.note("sim digest: sha256:%s", baseDigest)
	same := func(run string, res openloop.Result) error {
		d, err := simDigest(res)
		if err != nil {
			return err
		}
		bad := int64(0)
		if d != baseDigest {
			bad = measured
		}
		r.check(measured, bad, "%s: simulated results differ from the untraced sweep", run)
		return nil
	}

	// Host time by package, from a CPU profile of the same sweep.
	runtime.GC()
	if err := hostShares(r, func() error {
		res, err := openloop.Run(cfg)
		if err != nil {
			return err
		}
		return same("profiled", res)
	}); err != nil {
		return err
	}

	// Event, agent, scan, op and park counts: the same sweep as a serving
	// scenario with a metrics collector installed through Spec.Obs, and
	// the fabrics it builds observed for their traffic statistics.
	var fabs []*comm.Fabric
	comm.OnNewFabric(func(f *comm.Fabric) { fabs = append(fabs, f) })
	var out bytes.Buffer
	runtime.GC()
	tracedWall, err := clock(func() error {
		_, err := scenario.Run(servingSpec(cfg), &out)
		return err
	})
	comm.OnNewFabric(nil)
	if err != nil {
		return err
	}
	snap, err := collectorSnapshot(out.Bytes())
	if err != nil {
		return err
	}
	// The replay must be the same sweep: its rendered saturation line
	// carries the knee, its p99 and the requests issued.
	knee := kneePoint(base)
	sat := fmt.Sprintf("saturation: %.0f req/s at %g us/client (p99 %.1f us); %d requests issued",
		base.SaturationRPS, base.KneeLoadUs, knee.Latency.P99Us, base.TotalIssued)
	bad := int64(0)
	if !bytes.Contains(out.Bytes(), []byte(sat)) {
		bad = measured
	}
	r.check(measured, bad, "scenario replay: output lacks %q", sat)
	var commBytes, commOps, intra int64
	for _, f := range fabs {
		st := f.Stats()
		for _, b := range st.Bytes {
			commBytes += b
		}
		commOps += st.TotalOps()
		intra += st.Intra
	}
	counts := setCounts(r, snap, ops, baseWall)
	r.set("comm.bytes_per_op", float64(commBytes)/ops)
	r.set("comm.intra_share", ratio(float64(intra), float64(commOps)))
	r.set("trace.overhead_pct", 100*(tracedWall/baseWall-1))
	cd, err := digest(counts)
	if err != nil {
		return err
	}
	r.note("count digest: sha256:%s", cd)

	r.set("machine.proxy_util_max", knee.ProxyUtilMax)
	r.set("topo.mean_hops", knee.MeanHops)
	var tierMax float64
	for _, t := range knee.Tiers {
		tierMax = math.Max(tierMax, t.Util)
	}
	r.set("topo.tier_util_max", tierMax)
	// Replicated counts follower copies of every PUT, warmup included;
	// scale the measured PUT count to all issued requests to match.
	puts := float64(knee.Puts) * float64(knee.Issued) / float64(knee.Latency.Count)
	r.set("kv.replicated_per_put", ratio(float64(knee.Replicated), puts))

	// Where the slowest requests' simulated time went, from the flight
	// recorder on the same sweep (recording is timing-free).
	fcfg := cfg
	fcfg.Flight = &flight.Config{TopK: cfg.Requests / 100}
	runtime.GC()
	fres, err := openloop.Run(fcfg)
	if err != nil {
		return err
	}
	if err := same("flight", fres); err != nil {
		return err
	}
	setFlightShares(r, kneePoint(fres))

	// The parallel side-run: the same sweep on shard engines.
	if err := s.parSideRun(r, cfg, base, baseWall); err != nil {
		return err
	}

	r.set("gc.cpu_share", ratio(gc1-gc0, cpu1-cpu0))
	r.set("alloc.bytes_per_op", float64(b1-b0)/ops)
	return ladder(r)
}

// simMetrics are a sweep's sim_* metrics (knee point, saturation rate,
// summed simulated time) and per-point op counts: what the parallel
// side-run must reproduce exactly.
type simMetrics struct {
	KneeLoadUs, SatRPS, P50Us, P99Us, SimTimeUs float64
	Counts                                      [][6]int64 // measured, gets, puts, scans, replicated, issued
}

func simOf(res openloop.Result) simMetrics {
	knee := kneePoint(res)
	m := simMetrics{KneeLoadUs: res.KneeLoadUs, SatRPS: res.SaturationRPS,
		P50Us: knee.Latency.P50Us, P99Us: knee.Latency.P99Us}
	for _, pt := range res.Points {
		m.SimTimeUs += pt.ElapsedUs
		m.Counts = append(m.Counts, [6]int64{int64(pt.Latency.Count), pt.Gets, pt.Puts, pt.Scans, pt.Replicated, pt.Issued})
	}
	return m
}

// parSideRun runs cfg on s.parShards shard engines, checks its sim_*
// metrics and op counts against the sequential sweep seq, notes any other
// difference in the simulated results, and reports the executor's
// statistics. Workloads without a side-run report zeros.
func (s serving) parSideRun(r *report, cfg openloop.Config, seq openloop.Result, seqWall float64) error {
	if s.parShards == 0 {
		r.zero("par.speedup_2", "par.blocked_per_busy", "par.windows_per_crossing")
		return nil
	}
	pcfg := cfg
	pcfg.SimShards = s.parShards
	runtime.GC()
	var res openloop.Result
	parWall, err := clock(func() (err error) {
		res, err = openloop.Run(pcfg)
		return err
	})
	if err != nil {
		return err
	}
	want, err := digest(simOf(seq))
	if err != nil {
		return err
	}
	got, err := digest(simOf(res))
	if err != nil {
		return err
	}
	measured := int64(cfg.Requests * len(cfg.LoadUs))
	bad := int64(0)
	if got != want {
		bad = measured
	}
	r.check(measured, bad, "par: sim_* metrics or op counts differ from the sequential sweep")
	seqFull, err := simDigest(seq)
	if err != nil {
		return err
	}
	if full, err := simDigest(res); err != nil {
		return err
	} else if full != seqFull {
		for i, pt := range res.Points {
			if sp := seq.Points[i]; pt.Latency != sp.Latency {
				r.note("note: par @%gus: latency histogram differs from the sequential sweep (mean %.9g vs %.9g us)",
					pt.LoadUs, pt.Latency.MeanUs, sp.Latency.MeanUs)
			}
		}
		r.note("note: par: full simulated results differ from the sequential sweep (sha256:%s)", full)
	}
	var busy, blocked, windows, crossings int64
	for _, pt := range res.Points {
		if pt.Par == nil {
			return fmt.Errorf("par side-run: load point %g us has no executor statistics", pt.LoadUs)
		}
		for i := range pt.Par.BusyNs {
			busy += pt.Par.BusyNs[i]
			blocked += pt.Par.BlockedNs[i]
		}
		windows += pt.Par.Windows
		crossings += pt.Par.Crossings
	}
	r.set("par.speedup_2", seqWall/parWall)
	r.set("par.blocked_per_busy", ratio(float64(blocked), float64(busy)))
	r.set("par.windows_per_crossing", ratio(float64(windows), float64(crossings)))
	return nil
}

// servingSpec is cfg as a serving scenario with the metrics collector on.
func servingSpec(cfg openloop.Config) scenario.Spec {
	return scenario.Spec{
		Name:            "perfbench",
		Kind:            scenario.KindServing,
		Archs:           []string{cfg.Arch.Name},
		Topology:        scenario.Topology{Nodes: cfg.Nodes, Proxies: cfg.Proxies, ProxySched: cfg.ProxySched},
		CommandQueueCap: cfg.CommandQueueCap,
		Serving: &scenario.ServingSpec{
			Topo: cfg.Topo, Clients: cfg.Clients,
			ValueBytes: cfg.ValueBytes, ScanCount: cfg.ScanCount, Replication: cfg.Replication,
			Keys: cfg.Keys, Theta: cfg.Theta, Arrival: cfg.Arrival,
			Requests: cfg.Requests, Warmup: cfg.Warmup, LoadUs: cfg.LoadUs,
		},
		Fault: scenario.FaultSpec{Seed: cfg.Seed},
		Obs:   scenario.ObsSpec{Metrics: "json"},
	}
}

// collectorSnapshot extracts the metrics collector's JSON snapshot that a
// scenario run with Obs.Metrics "json" appends after its rendered output.
func collectorSnapshot(out []byte) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	i := bytes.Index(out, []byte("\n{"))
	if i < 0 {
		return snap, fmt.Errorf("scenario output has no metrics snapshot")
	}
	if err := json.Unmarshal(out[i+1:], &snap); err != nil {
		return snap, fmt.Errorf("metrics snapshot: %w", err)
	}
	return snap, nil
}

// opCounts are a traced run's deterministic work counts per operation.
type opCounts struct {
	Events, Parks, AgentItems, Scans, Probes, Passes, CommOps float64
	AgentWaitUs, OneWayUs                                     float64
}

// setCounts reports the collector's counts per operation (ops simulated
// requests, or comm operations) and returns them for the count digest.
// hostWall is the untraced run's host seconds, for host ns per event.
func setCounts(r *report, snap metrics.Snapshot, ops, hostWall float64) opCounts {
	c := opCounts{
		Events:     float64(snap.ByKind["schedule"]),
		Parks:      float64(snap.ByKind["park"]),
		AgentItems: float64(snap.ByKind["poll"]),
		Scans:      float64(snap.ByKind["scan"]),
		CommOps:    float64(snap.ByKind["op-submit"]),
	}
	var waitSum, waitN, latSum, latN float64
	for _, cp := range snap.Components {
		if cp.Scan != nil {
			c.Probes += float64(cp.Scan.Probes)
			c.Passes += float64(cp.Scan.Passes)
		}
		if d, ok := cp.Durations["poll"]; ok {
			waitSum += d.MeanUs * float64(d.Count)
			waitN += float64(d.Count)
		}
		if d, ok := cp.Durations["op-done"]; ok {
			latSum += d.MeanUs * float64(d.Count)
			latN += float64(d.Count)
		}
	}
	c.AgentWaitUs = ratio(waitSum, waitN)
	c.OneWayUs = ratio(latSum, latN)
	r.set("sim.events_per_op", c.Events/ops)
	r.set("sim.ns_per_event", ratio(hostWall*1e9, c.Events))
	r.set("sim.proc_parks_per_op", c.Parks/ops)
	r.set("machine.agent_items_per_op", c.AgentItems/ops)
	r.set("machine.agent_wait_us", c.AgentWaitUs)
	r.set("proxy.scans_per_op", c.Scans/ops)
	r.set("proxy.probes_per_scan", ratio(c.Probes, c.Passes))
	r.set("comm.ops_per_op", c.CommOps/ops)
	r.set("comm.oneway_us", c.OneWayUs)
	return c
}

// setFlightShares reports each flight segment's share of the summed
// latency of the knee point's slowest requests.
func setFlightShares(r *report, pt openloop.Point) {
	names := [flight.NumSegs]string{
		flight.SegSched:   "flight.backlog_share",
		flight.SegReq:     "flight.req_wire_share",
		flight.SegService: "flight.primary_share",
		flight.SegRepWait: "flight.replica_wait_share",
		flight.SegReply:   "flight.reply_wire_share",
	}
	var seg [flight.NumSegs]float64
	var total float64
	if pt.Flight != nil {
		for i := range pt.Flight.Slowest {
			rec := &pt.Flight.Slowest[i]
			for k, v := range rec.Seg {
				seg[k] += float64(v)
			}
			total += float64(rec.Latency())
		}
	}
	for k, name := range names {
		r.set(name, ratio(seg[k], total))
	}
}
