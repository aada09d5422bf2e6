// Package bench is the repository's benchmark-gated performance harness:
// a fixed suite of engine and end-to-end measurements emitted in a stable
// JSON schema ("mproxy-bench/v1") that CI diffs against the checked-in
// BENCH_*.json baseline. The suite is hand-rolled rather than built on
// testing.B so it can run inside the mproxy CLI with fixed, reproducible
// operation counts; allocation figures come from runtime.MemStats deltas
// around each measured region and are exact (per-op noise is amortized
// over millions of operations).
//
// The north-star metric is engine-events: the same-timestamp schedule/fire
// chain that every process handoff in the simulator reduces to. The
// end-to-end rows (pingpong-e2e, figure8-small) tie engine-level wins to
// experiment wall-clock, so an "optimization" that speeds the microloop
// while slowing real runs is caught in the same suite.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
	"mproxy/internal/trace/flight"
	"mproxy/internal/workload"
	"mproxy/internal/workload/openloop"
)

// Schema identifies the Suite JSON layout. Bump only with a migration in
// Compare; CI parses strictly and rejects unknown schemas.
const Schema = "mproxy-bench/v1"

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Suite is a full harness run.
type Suite struct {
	Schema string `json:"schema"`
	// Quick marks a reduced-op-count run (CI shards); per-op figures are
	// comparable across quick and full runs, totals are not.
	Quick   bool     `json:"quick"`
	Results []Result `json:"results"`
}

// Options configures a harness run.
type Options struct {
	// Quick trims the end-to-end rows (fewer pingpong round trips, test
	// scale for figure8) for CI latency; the engine microbenchmarks keep
	// full counts so their per-op figures stay gateable against a full-run
	// baseline.
	Quick bool
}

// Run executes the fixed suite and returns its results in suite order.
func Run(opt Options) (Suite, error) {
	s := Suite{Schema: Schema, Quick: opt.Quick}
	type bm struct {
		name string
		ops  int64 // full-run count
		qops int64 // -quick count; 0 means same as full
		fn   func(ops int64) error
	}
	// The microbenchmark rows keep full counts under -quick: they cost
	// tens of milliseconds each and need that window length (and the same
	// setup-cost amortization) for per-op figures stable enough to gate at
	// 10%. Quick trims the serving sweep and switches figure8 to test
	// scale, which dominate wall-clock.
	suite := []bm{
		{"engine-events", 2_000_000, 0, benchEngineEvents},
		{"engine-timer", 1_000_000, 0, benchEngineTimer},
		{"engine-traced", 1_000_000, 0, benchEngineTraced},
		{"pingpong-e2e", 2_000, 0, benchPingPong},
		{"serving-smoke", 4_000, 1_000, benchServing(nil, 1, "", 0)},
		{"serving-forensics", 4_000, 1_000, benchServing(&flight.Config{}, 1, "", 0)},
		{"serving-proxysched", 4_000, 1_000, benchServing(nil, 2, "steal", 0)},
		{"serving-smoke-par", 4_000, 1_000, benchServing(nil, 1, "", 2)},
		// engine-par-events keeps its full count under -quick: the
		// 1024-node cluster construction is a fixed cost large enough
		// that per-op figures at a reduced request count would not be
		// comparable against the full-run baseline.
		{"engine-par-events", 8_000, 0, benchServingPar()},
		{"figure8-small", 3, 0, benchFigure8(opt.Quick)},
	}
	for _, b := range suite {
		ops := b.ops
		if opt.Quick && b.qops > 0 {
			ops = b.qops
		}
		res, err := measure(b.name, ops, b.fn)
		if err != nil {
			return Suite{}, fmt.Errorf("bench %s: %w", b.name, err)
		}
		s.Results = append(s.Results, res)
	}
	return s, Validate(s)
}

// measureReps is how many times each benchmark runs; the fastest
// repetition is reported. Best-of-N is what keeps the -quick CI shard's
// short measurement windows comparable against the full-run baseline:
// scheduler hiccups and cold caches only ever slow a rep down, so the
// minimum converges on the benchmark's true cost. Five reps (up from
// three) keeps the end-to-end rows' minimum stable on loaded shared
// runners, where a single rep can be 20% off.
const measureReps = 5

// measure runs fn(ops) measureReps times between MemStats snapshots and
// reports the fastest repetition's per-op figures.
func measure(name string, ops int64, fn func(ops int64) error) (Result, error) {
	best := Result{Name: name, Ops: ops}
	for rep := 0; rep < measureReps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := fn(ops); err != nil {
			return Result{}, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		r := Result{
			Name:        name,
			Ops:         ops,
			NsPerOp:     float64(wall.Nanoseconds()) / float64(ops),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		}
		if wall > 0 {
			r.OpsPerSec = float64(ops) / wall.Seconds()
		}
		if rep == 0 || r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best, nil
}

// benchEngineEvents is the engine event-throughput benchmark: a
// self-rescheduling zero-delay chain, one schedule+fire per op — the
// pattern every Wake/park handoff reduces to.
func benchEngineEvents(ops int64) error {
	e := sim.NewEngine()
	var n int64
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
	if n < ops {
		return fmt.Errorf("ran %d of %d events", n, ops)
	}
	return nil
}

// benchEngineTimer exercises the 4-ary heap: 64 outstanding future events,
// each pop followed by a push at a varying delay.
func benchEngineTimer(ops int64) error {
	const outstanding = 64
	e := sim.NewEngine()
	var n int64
	var step func()
	step = func() {
		n++
		if n+outstanding <= ops {
			e.Schedule(sim.Time(1+n%7), step)
		}
	}
	for i := int64(0); i < outstanding && i < ops; i++ {
		e.Schedule(sim.Time(1+i), step)
	}
	return e.Run()
}

// benchEngineTraced is benchEngineEvents with the golden-trace digest
// installed: schedule + fire + two batched trace events per op.
func benchEngineTraced(ops int64) error {
	e := sim.NewEngine()
	e.SetTracer(trace.NewDigest())
	var n int64
	var step func()
	step = func() {
		n++
		if n < ops {
			e.Schedule(0, step)
		}
	}
	e.Schedule(0, step)
	return e.Run()
}

// benchPingPong is the end-to-end latency path: the golden-trace pingpong
// scenario (64-byte PUTs bounced between two MP1 nodes through command
// queue, proxy scan, wire, and remote deposit), one round trip per op.
func benchPingPong(ops int64) error {
	const n = 64
	a, ok := arch.ByName("MP1")
	if !ok {
		return fmt.Errorf("unknown arch MP1")
	}
	reps := int(ops)
	eng := sim.NewEngine()
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
	return eng.Run()
}

// benchServing measures the open-loop serving stack end-to-end: a small
// MP1 fat-tree cluster under the Poisson generator, one measured request
// per op. The row stacks multi-switch routing, AM dispatch, KV service
// and replication on top of the engine, so a regression anywhere in the
// serving path moves it even when the microloops hold steady. A non-nil
// fcfg turns the flight recorder on (the serving-forensics row), pinning
// the recorder's bounded-overhead contract against the identical
// recorder-off configuration. proxies/sched select the proxy-scheduling
// design point: the serving-proxysched row runs two proxies per node
// under work stealing, so the steal path's cost (idle-proxy victim
// scans, cross-queue AgentMiss charges) is gated alongside the static
// baseline. shards > 1 runs the point on the conservative-parallel
// executor (the serving-smoke-par row), gating the sharded driver's
// overhead — mailbox posts, window barriers, pooling disabled — against
// the identical sequential configuration next to it in the suite.
func benchServing(fcfg *flight.Config, proxies int, sched string, shards int) func(ops int64) error {
	return func(ops int64) error {
		a, ok := arch.ByName("MP1")
		if !ok {
			return fmt.Errorf("unknown arch MP1")
		}
		res, err := openloop.Run(openloop.Config{
			Arch: a, Nodes: 4, Clients: 2, Proxies: proxies, ProxySched: sched,
			Topo: "fat-tree", CommandQueueCap: 64,
			ValueBytes: 64, ScanCount: 16, Replication: 2,
			Keys: 1024, Theta: 0.99,
			Requests: int(ops), Warmup: int(ops / 10),
			LoadUs:    []float64{320},
			Seed:      7,
			Flight:    fcfg,
			SimShards: shards,
		})
		if err != nil {
			return err
		}
		if got := int64(res.Points[0].Latency.Count); got != ops {
			return fmt.Errorf("measured %d of %d requests", got, ops)
		}
		if fcfg != nil && res.Points[0].Flight == nil {
			return fmt.Errorf("flight recorder produced no data")
		}
		return nil
	}
}

// servingParConfig is the engine-par-events configuration: the 1k-node
// fat-tree serving point the parallel executor exists for, one load
// level, request count = ops.
func servingParConfig(a arch.Params, ops int64, shards int) openloop.Config {
	return openloop.Config{
		Arch: a, Nodes: 1024, Clients: 1,
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 64, ScanCount: 16, Replication: 2,
		Keys: 4096, Theta: 0.5,
		Requests: int(ops), Warmup: int(ops / 10),
		LoadUs:    []float64{160},
		Seed:      7,
		SimShards: shards,
	}
}

// benchServingPar measures the conservative-parallel executor at the
// scale it exists for: 1024 fat-tree nodes across 8 shards, one
// measured request per op. The first invocation also runs the identical
// sequential configuration once and reports the wall-clock ratio on
// stderr ("par-speedup: X.XXx") together with the parallel run's
// per-shard stats — ci.sh gates the ratio on hosts with enough cores,
// and the sequential twin stays out of the measured best-of-N (its rep
// can never be the fastest). The row's own per-op figures gate the
// sharded driver's scaling overhead against the baseline like any other
// row.
func benchServingPar() func(ops int64) error {
	const shards = 8
	first := true
	return func(ops int64) error {
		a, ok := arch.ByName("MP1")
		if !ok {
			return fmt.Errorf("unknown arch MP1")
		}
		var seqWall time.Duration
		if first {
			first = false
			start := time.Now()
			if _, err := openloop.Run(servingParConfig(a, ops, 0)); err != nil {
				return err
			}
			seqWall = time.Since(start)
		}
		start := time.Now()
		res, err := openloop.Run(servingParConfig(a, ops, shards))
		if err != nil {
			return err
		}
		parWall := time.Since(start)
		if got := int64(res.Points[0].Latency.Count); got != ops {
			return fmt.Errorf("measured %d of %d requests", got, ops)
		}
		st := res.Points[0].Par
		if st == nil || st.Shards != shards {
			return fmt.Errorf("parallel run reported no %d-shard stats", shards)
		}
		if seqWall > 0 {
			fmt.Fprintf(os.Stderr, "par-speedup: %.2fx (seq %v, par %v, %d shards, GOMAXPROCS %d)\n",
				seqWall.Seconds()/parWall.Seconds(), seqWall.Round(time.Millisecond),
				parWall.Round(time.Millisecond), shards, runtime.GOMAXPROCS(0))
			fmt.Fprintf(os.Stderr, "par-stats: %s\n", st)
		}
		return nil
	}
}

// benchFigure8 measures application wall-clock: the Sample kernel on MP1
// at 1, 2 and 4 processors (one cell per op), at small scale — or test
// scale under -quick.
func benchFigure8(quick bool) func(ops int64) error {
	return func(ops int64) error {
		spec, err := registry.ByName("Sample")
		if err != nil {
			return err
		}
		scale := registry.Small
		if quick {
			scale = registry.Test
		}
		a, ok := arch.ByName("MP1")
		if !ok {
			return fmt.Errorf("unknown arch MP1")
		}
		for _, nodes := range []int{1, 2, 4} {
			if _, err := workload.Run(spec.New(scale), a, machine.Config{Nodes: nodes, ProcsPerNode: 1}, workload.Options{}); err != nil {
				return err
			}
		}
		return nil
	}
}

// Validate checks a suite for schema conformance: the exact schema tag,
// at least one result, unique names, and finite, sane figures.
func Validate(s Suite) error {
	if s.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", s.Schema, Schema)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("bench: empty result set")
	}
	seen := map[string]bool{}
	for _, r := range s.Results {
		if r.Name == "" {
			return fmt.Errorf("bench: result with empty name")
		}
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate result %q", r.Name)
		}
		seen[r.Name] = true
		if r.Ops <= 0 {
			return fmt.Errorf("bench %s: ops %d, want > 0", r.Name, r.Ops)
		}
		for _, v := range []struct {
			what string
			val  float64
		}{
			{"ns_per_op", r.NsPerOp}, {"ops_per_sec", r.OpsPerSec},
			{"allocs_per_op", r.AllocsPerOp}, {"bytes_per_op", r.BytesPerOp},
		} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("bench %s: %s = %v, want finite and >= 0", r.Name, v.what, v.val)
			}
		}
		if r.NsPerOp <= 0 || r.OpsPerSec <= 0 {
			return fmt.Errorf("bench %s: zero timing (ns_per_op=%v ops_per_sec=%v)", r.Name, r.NsPerOp, r.OpsPerSec)
		}
	}
	return nil
}

// ParseJSON strictly decodes and validates a suite; unknown fields are an
// error, so baseline files can't silently rot.
func ParseJSON(data []byte) (Suite, error) {
	var s Suite
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("bench: parse: %w", err)
	}
	if err := Validate(s); err != nil {
		return Suite{}, err
	}
	return s, nil
}

// JSON renders the suite with stable formatting (sorted keys come free
// from the struct field order; indented for reviewable diffs).
func (s Suite) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain data struct; cannot fail
	}
	return append(out, '\n')
}

// Compare checks current against a baseline: every baseline benchmark must
// still be present, its throughput may not regress by more than tol
// (fractional, e.g. 0.10), and its allocs/op may not grow by more than tol
// plus half an allocation of absolute slack (so a 0-alloc baseline stays
// pinned at 0 while jittery fractional rates don't flap).
// WriteComparison renders a per-benchmark delta table of current against
// baseline — ns/op, allocs/op, and the throughput ratio — so every CI log
// shows where the time went, not just whether the gate tripped.
func WriteComparison(w io.Writer, current, baseline Suite) {
	base := map[string]Result{}
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	fmt.Fprintf(w, "%-16s %14s %14s %8s %12s %12s\n",
		"benchmark", "ns/op", "base ns/op", "speedup", "allocs/op", "base allocs")
	for _, c := range current.Results {
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s %14.2f %14s %8s %12.2f %12s\n",
				c.Name, c.NsPerOp, "-", "-", c.AllocsPerOp, "-")
			continue
		}
		speedup := 0.0
		if c.NsPerOp > 0 {
			speedup = b.NsPerOp / c.NsPerOp
		}
		fmt.Fprintf(w, "%-16s %14.2f %14.2f %7.2fx %12.2f %12.2f\n",
			c.Name, c.NsPerOp, b.NsPerOp, speedup, c.AllocsPerOp, b.AllocsPerOp)
	}
}

func Compare(current, baseline Suite, tol float64) error {
	cur := map[string]Result{}
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			return fmt.Errorf("bench %s: present in baseline, missing from current run", b.Name)
		}
		if floor := b.OpsPerSec * (1 - tol); c.OpsPerSec < floor {
			return fmt.Errorf("bench %s: throughput regression: %.0f ops/sec < %.0f (baseline %.0f, tolerance %.0f%%)",
				b.Name, c.OpsPerSec, floor, b.OpsPerSec, tol*100)
		}
		if ceil := b.AllocsPerOp*(1+tol) + 0.5; c.AllocsPerOp > ceil {
			return fmt.Errorf("bench %s: allocation regression: %.2f allocs/op > %.2f (baseline %.2f)",
				b.Name, c.AllocsPerOp, ceil, b.AllocsPerOp)
		}
	}
	return nil
}
