// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment, plus ablations of the design choices
// called out in DESIGN.md. Key reproduced quantities are attached as
// custom metrics (us, MB/s, speedup), so `go test -bench . -benchmem`
// doubles as a compact reproduction report. The application benches run at
// Test scale; use the cmd/mproxy subcommands for the full sweeps.
package mproxy_test

import (
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/costmodel"
	"mproxy/internal/machine"
	"mproxy/internal/micro"
	"mproxy/internal/model"
	"mproxy/internal/queueing"
	"mproxy/internal/sim"
	"mproxy/internal/workload"
)

// BenchmarkTable1Model evaluates the Section 4 latency equations on the
// G30 primitives (Table 1) and reports the modeled GET/PUT latencies.
func BenchmarkTable1Model(b *testing.B) {
	m := model.G30()
	var get, put float64
	for i := 0; i < b.N; i++ {
		get = m.GETLatency()
		put = m.PUTLatency()
	}
	b.ReportMetric(get, "GETus")
	b.ReportMetric(put, "PUTus")
}

// BenchmarkTable2Trace walks the GET critical-path trace (Table 2).
func BenchmarkTable2Trace(b *testing.B) {
	m := model.G30()
	tr := model.GETTrace()
	var total float64
	for i := 0; i < b.N; i++ {
		total = tr.Total(m)
	}
	b.ReportMetric(total, "GETus")
}

// BenchmarkTable4Micro regenerates the Table 4 micro-benchmarks per design
// point.
func BenchmarkTable4Micro(b *testing.B) {
	for _, a := range arch.All {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var r micro.Table4Row
			for i := 0; i < b.N; i++ {
				r = micro.Table4(a, micro.Options{})
			}
			b.ReportMetric(r.PutLatency, "PUTus")
			b.ReportMetric(r.GetLatency, "GETus")
			b.ReportMetric(r.AMLatency, "AMus")
			b.ReportMetric(r.PeakBW, "MB/s")
		})
	}
}

// BenchmarkFigure7PingPong regenerates the Figure 7 latency/bandwidth
// sweep for the next-generation design points.
func BenchmarkFigure7PingPong(b *testing.B) {
	sizes := []int{8, 256, 4096, 65536}
	for _, a := range []arch.Params{arch.HW1, arch.MP1, arch.MP2, arch.SW1} {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var pts []micro.Point
			for i := 0; i < b.N; i++ {
				pts = micro.PingPongPut(a, sizes, micro.Options{})
			}
			b.ReportMetric(pts[0].Latency, "lat8B-us")
			b.ReportMetric(pts[len(pts)-1].BW, "bw64KB-MB/s")
		})
	}
}

// BenchmarkFigure8 regenerates a Figure 8 speedup point (Test scale, 4
// processors) for every application under the headline design points.
func BenchmarkFigure8(b *testing.B) {
	for _, spec := range registry.All() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for _, a := range []arch.Params{arch.HW1, arch.MP1, arch.MP2, arch.SW1} {
				a := a
				b.Run(a.Name, func(b *testing.B) {
					var speedup float64
					for i := 0; i < b.N; i++ {
						ref, err := workload.Run(spec.New(registry.Test), arch.HW1, machine.Config{Nodes: 1, ProcsPerNode: 1}, workload.Options{})
						if err != nil {
							b.Fatal(err)
						}
						res, err := workload.Run(spec.New(registry.Test), a, machine.Config{Nodes: 4, ProcsPerNode: 1}, workload.Options{})
						if err != nil {
							b.Fatal(err)
						}
						speedup = float64(ref.Time) / float64(res.Time)
					}
					b.ReportMetric(speedup, "speedup@4")
				})
			}
		})
	}
}

// BenchmarkTable6Traffic regenerates a Table 6 row: message statistics of
// the communication-heavy applications under MP1.
func BenchmarkTable6Traffic(b *testing.B) {
	for _, name := range []string{"Water", "Sample", "Wator"} {
		spec, err := registry.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = workload.Run(spec.New(registry.Test), arch.MP1, machine.Config{Nodes: 4, ProcsPerNode: 1}, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.AvgMsgSize, "avgB")
			b.ReportMetric(res.MsgRate, "op/ms")
			b.ReportMetric(res.AgentUtil*100, "util%")
		})
	}
}

// BenchmarkFigure9SMP regenerates the Figure 9 contention point: 2 SMP
// nodes x 4 compute processors sharing one proxy (Test scale).
func BenchmarkFigure9SMP(b *testing.B) {
	spec, err := registry.ByName("Water")
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []arch.Params{arch.HW1, arch.MP1, arch.MP2} {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				res, err = workload.Run(spec.New(registry.Test), a, machine.Config{Nodes: 2, ProcsPerNode: 4}, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Time.Millis(), "sim-ms")
			b.ReportMetric(res.AgentUtil*100, "util%")
		})
	}
}

// BenchmarkQueueModel evaluates the Section 5.4 M/D/1 proxy model.
func BenchmarkQueueModel(b *testing.B) {
	p := queueing.Proxy{ServiceUs: 25, RatePerProcUs: 0.0075}
	var w float64
	for i := 0; i < b.N; i++ {
		w = p.WaitUs(2)
	}
	b.ReportMetric(w, "wait@2-us")
	b.ReportMetric(float64(p.Supported()), "supported")
}

// --- Ablations of DESIGN.md's calibrated choices ---

// BenchmarkAblationCacheUpdate sweeps the user-proxy miss latency between
// MP1's 1.0us and MP2's 0.25us, the paper's direct cache-update primitive.
func BenchmarkAblationCacheUpdate(b *testing.B) {
	for _, missUs := range []float64{1.0, 0.5, 0.25, 0.1} {
		missUs := missUs
		b.Run(formatUs(missUs), func(b *testing.B) {
			a := arch.MP1
			a.AgentMiss = sim.Micros(missUs)
			var put float64
			for i := 0; i < b.N; i++ {
				put = micro.PutLatency(a, 8, micro.Options{})
			}
			b.ReportMetric(put, "PUTus")
		})
	}
}

// BenchmarkAblationPollingDelay sweeps the proxy polling delay P.
func BenchmarkAblationPollingDelay(b *testing.B) {
	for _, baseUs := range []float64{0, 0.5, 1.0, 3.0, 6.0} {
		baseUs := baseUs
		b.Run(formatUs(baseUs), func(b *testing.B) {
			a := arch.MP1
			a.PollBase = sim.Micros(baseUs)
			var put float64
			for i := 0; i < b.N; i++ {
				put = micro.PutLatency(a, 8, micro.Options{})
			}
			b.ReportMetric(put, "PUTus")
		})
	}
}

// BenchmarkAblationPinning sweeps the per-page pinning cost that separates
// software peak bandwidth (86.7 MB/s) from pre-pinned custom hardware
// (150 MB/s).
func BenchmarkAblationPinning(b *testing.B) {
	for _, pinUs := range []float64{0, 5, 10, 20} {
		pinUs := pinUs
		b.Run(formatUs(pinUs), func(b *testing.B) {
			a := arch.MP1
			a.PinPerPage = sim.Micros(pinUs)
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = micro.PeakBandwidth(a, micro.Options{})
			}
			b.ReportMetric(bw, "MB/s")
		})
	}
}

// BenchmarkAblationCPUSpeed sweeps the compute-cost scale, checking that
// the MP1-vs-HW1 ordering is robust to the POWER2 calibration (the
// repro-risk called out in DESIGN.md: compute costs are analytic, not
// wall-clock).
func BenchmarkAblationCPUSpeed(b *testing.B) {
	spec, err := registry.ByName("Wator")
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{0.5, 1.0, 2.0} {
		scale := scale
		b.Run(formatUs(scale), func(b *testing.B) {
			old := costmodel.Scale
			costmodel.Scale = scale
			defer func() { costmodel.Scale = old }()
			var ratio float64
			for i := 0; i < b.N; i++ {
				hw, err := workload.Run(spec.New(registry.Test), arch.HW1, machine.Config{Nodes: 4, ProcsPerNode: 1}, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
				mp, err := workload.Run(spec.New(registry.Test), arch.MP1, machine.Config{Nodes: 4, ProcsPerNode: 1}, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(mp.Time) / float64(hw.Time)
			}
			if ratio < 1.0 {
				b.Fatalf("MP1 faster than HW1 at scale %v", scale)
			}
			b.ReportMetric(ratio, "MP1/HW1-time")
		})
	}
}

func formatUs(v float64) string {
	switch {
	case v == float64(int(v)):
		return itoa(int(v)) + "us"
	default:
		return itoa(int(v*100)) + "e-2us"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationIntraBypass measures how much the intra-node
// shared-memory fast path relieves the message proxy in the Figure 9
// configuration ("intra-node communication reduces the load on the message
// proxy").
func BenchmarkAblationIntraBypass(b *testing.B) {
	spec, err := registry.ByName("Water")
	if err != nil {
		b.Fatal(err)
	}
	for _, bypass := range []bool{true, false} {
		bypass := bypass
		name := "bypass-on"
		if !bypass {
			name = "bypass-off"
		}
		b.Run(name, func(b *testing.B) {
			var t sim.Time
			var util float64
			for i := 0; i < b.N; i++ {
				env := apps.NewEnv(machine.Config{Nodes: 2, ProcsPerNode: 4}, arch.MP1, 64<<20)
				if !bypass {
					env.Fab.DisableIntraBypass()
				}
				t, err = apps.Run(env, spec.New(registry.Test))
				if err != nil {
					b.Fatal(err)
				}
				util = 0
				for _, nd := range env.Cl.Nodes {
					if u := nd.Agent.Utilization(env.Eng.Now()); u > util {
						util = u
					}
				}
			}
			b.ReportMetric(t.Millis(), "sim-ms")
			b.ReportMetric(util*100, "util%")
		})
	}
}

// BenchmarkAblationMultiProxy sweeps proxies per node in the Figure 9
// overload configuration — the paper's "multiple message proxies may help"
// alternative.
func BenchmarkAblationMultiProxy(b *testing.B) {
	spec, err := registry.ByName("Water")
	if err != nil {
		b.Fatal(err)
	}
	for _, proxies := range []int{1, 2, 4} {
		proxies := proxies
		b.Run(itoa(proxies)+"proxies", func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				res, err = workload.Run(spec.New(registry.Test), arch.MP1,
					machine.Config{Nodes: 2, ProcsPerNode: 4, ProxiesPerNode: proxies}, workload.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Time.Millis(), "sim-ms")
			b.ReportMetric(res.AgentUtil*100, "util%")
		})
	}
}
