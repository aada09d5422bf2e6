// Package workload drives the paper's application experiments: the
// self-relative speedup curves of Figure 8 (1-16 processors, one compute
// processor per node), the message-traffic statistics of Table 6, and the
// SMP-contention configuration of Figure 9 (4 nodes x 4 compute processors).
package workload

import (
	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// DefaultHeapBytes is the per-rank Split-C heap used when Options leaves
// HeapBytes zero. It suits the test and small scales; the full-scale
// presets raise it (FFT over 1M points needs ~64 MiB per rank at low
// processor counts).
const DefaultHeapBytes = 8 << 20

// Options carries per-run simulation parameters. The zero value is the
// fault-free default configuration.
type Options struct {
	// Fabric tunes the communication fabric (command-queue capacity,
	// reliable transport).
	Fabric comm.Options
	// Fault, when non-nil, is installed on the run's cluster before any
	// traffic flows.
	Fault machine.FaultPlane
	// HeapBytes sizes the per-rank Split-C heap; zero means
	// DefaultHeapBytes.
	HeapBytes int
	// Tracer, when non-nil, receives the run's full trace stream (see
	// apps.EnvOptions.Tracer). Because it is per-run state rather than the
	// deprecated process-global tracer, RunJobs parallelism and tracing
	// compose: give each job its own tracer. A single tracer must not be
	// shared across jobs that may run concurrently.
	Tracer trace.Tracer
}

func (o Options) heapBytes() int {
	if o.HeapBytes > 0 {
		return o.HeapBytes
	}
	return DefaultHeapBytes
}

func (o Options) envOptions() apps.EnvOptions {
	return apps.EnvOptions{Fabric: o.Fabric, Fault: o.Fault, Tracer: o.Tracer}
}

// Result captures one application run.
type Result struct {
	App   string
	Arch  string
	Nodes int
	PPN   int // compute processors per node

	Time sim.Time // measured-phase duration

	// Traffic statistics (Table 6).
	Msgs       int64   // inter-node RMA/RQ operations
	IntraOps   int64   // operations that stayed inside a node
	AvgMsgSize float64 // bytes per operation
	MsgRate    float64 // per-processor operations per millisecond
	// AgentUtil is the busiest node agent's utilization over the run
	// ("interface utilization"); zero under SW, which has no agent.
	AgentUtil float64
	// CPUStolen is the largest fraction of a compute processor consumed
	// by interrupt handling (SW only).
	CPUStolen float64
	// Latency holds observed one-way operation latencies under the
	// application's load (contrast with Table 4's quiescent round trips).
	Latency map[comm.OpKind]comm.LatencyStat
}

// Procs returns the total compute processors.
func (r Result) Procs() int { return r.Nodes * r.PPN }

// Run executes one application instance under design point a on the
// topology cfg (nodes, compute processors per node, and e.g. multiple
// proxies per node for the Section 5.4 multi-proxy experiment).
func Run(app apps.App, a arch.Params, cfg machine.Config, opt Options) (Result, error) {
	env := apps.NewEnvWith(cfg, a, opt.heapBytes(), opt.envOptions())
	elapsed, err := apps.Run(env, app)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		App: app.Name(), Arch: a.Name, Nodes: cfg.Nodes, PPN: cfg.ProcsPerNode, Time: elapsed,
	}
	stats := env.Fab.Stats()
	res.Msgs = stats.TotalOps() - stats.Intra
	res.IntraOps = stats.Intra
	res.AvgMsgSize = stats.AvgMsgSize()
	total := env.Eng.Now()
	if elapsed > 0 {
		res.MsgRate = float64(res.Msgs) / float64(res.Procs()) / elapsed.Millis()
	}
	for _, nd := range env.Cl.Nodes {
		for _, ag := range nd.Agents {
			if u := ag.Utilization(total); u > res.AgentUtil {
				res.AgentUtil = u
			}
		}
	}
	for _, cpu := range env.Cl.CPUs {
		if total > 0 {
			if f := float64(cpu.Stolen()) / float64(total); f > res.CPUStolen {
				res.CPUStolen = f
			}
		}
	}
	res.Latency = env.Fab.LatencyStats()
	return res, nil
}

// Curve is one app x arch speedup series.
type Curve struct {
	App     string
	Arch    string
	Procs   []int
	Times   []sim.Time
	Speedup []float64 // relative to the reference T(1)
}
