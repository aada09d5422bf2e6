package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
)

// Job is one cell of an experiment matrix: an application instance on a
// topology under a design point. Factory must build a fresh App per call;
// a Job may run on any worker goroutine. Opts is the cell's simulation
// options; a shared fault plane is safe (fault planes are stateless and
// keyed by component/sequence, so concurrent engines never interfere).
type Job struct {
	Factory func() apps.App
	Arch    arch.Params
	Nodes   int
	PPN     int
	Opts    Options
}

// RunJobs executes every job and returns their results in job order.
// Jobs run on a ForEach pool of workers goroutines (<= 0 picks
// GOMAXPROCS) — each cell owns an independent sim.Engine, and the
// simulator keeps all mutable state inside the engine, so cells are
// embarrassingly parallel and results are bit-identical to a serial run.
//
// The first job error aborts scheduling of not-yet-started jobs and is
// returned; completed results are still valid.
func RunJobs(jobs []Job, workers int) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := ForEach(len(jobs), workers, func(i int) error {
		j := jobs[i]
		res, err := Run(j.Factory(), j.Arch, machine.Config{Nodes: j.Nodes, ProcsPerNode: j.PPN}, j.Opts)
		results[i] = res
		if err != nil {
			return fmt.Errorf("job %d (%s %dx%d): %w", i, j.Arch.Name, j.Nodes, j.PPN, err)
		}
		return nil
	})
	return results, err
}

// ForEach calls run(i) for every i in [0, n) on a pool of workers
// goroutines (<= 0 picks GOMAXPROCS, and never more than n) and returns
// once every started call has returned. Indices are handed out in
// ascending order; after a failure no further index starts, so every
// index below a failing one has run to completion and the error returned
// — that of the lowest failing index — is the one a serial loop would
// have stopped at. Each call must own the state it mutates: callers
// write their outputs to per-index slots.
//
// The pool degrades to one worker while a process-wide observer is
// installed — the global tracer (sim.SetGlobalTracer) or a
// cluster/net/fabric construction hook (machine.OnNewCluster,
// topo.OnNewNet, comm.OnNewFabric). Those observers are not synchronized,
// and what they record depends on the order engines are built and run.
func ForEach(n, workers int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if sim.GlobalTracerInstalled() || machine.ClusterHookInstalled() ||
		topo.NetHookInstalled() || comm.FabricHookInstalled() {
		workers = 1
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = run(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SpeedupsJ runs an application factory over the processor counts (one
// compute processor per node) for each design point and normalizes to the
// single-processor time of refArch (the paper uses T(1) on HW1). The
// whole (arch x procs) matrix — plus the reference cell — is dispatched
// as independent jobs over a pool of workers (see RunJobs), with opt
// applied to every cell.
func SpeedupsJ(newApp func() apps.App, archs []arch.Params, procs []int, refArch string, workers int, opt Options) ([]Curve, error) {
	ref, ok := arch.ByName(refArch)
	if !ok {
		return nil, fmt.Errorf("unknown reference architecture %q", refArch)
	}
	jobs := []Job{{Factory: newApp, Arch: ref, Nodes: 1, PPN: 1, Opts: opt}}
	for _, a := range archs {
		for _, p := range procs {
			jobs = append(jobs, Job{Factory: newApp, Arch: a, Nodes: p, PPN: 1, Opts: opt})
		}
	}
	results, err := RunJobs(jobs, workers)
	if err != nil {
		return nil, err
	}
	t1 := results[0].Time
	var curves []Curve
	i := 1
	for _, a := range archs {
		c := Curve{App: results[0].App, Arch: a.Name}
		for _, p := range procs {
			res := results[i]
			i++
			c.Procs = append(c.Procs, p)
			c.Times = append(c.Times, res.Time)
			c.Speedup = append(c.Speedup, float64(t1)/float64(res.Time))
		}
		curves = append(curves, c)
	}
	return curves, nil
}
