package workload

import (
	"reflect"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/trace"
)

func factory(t *testing.T, name string) func() apps.App {
	t.Helper()
	spec, err := registry.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() apps.App { return spec.New(registry.Test) }
}

// serialSpeedups is the reference for the worker pool: SpeedupsJ's
// curves computed by calling Run cell by cell on this goroutine.
func serialSpeedups(t *testing.T, newApp func() apps.App, archs []arch.Params, procs []int, refArch string) []Curve {
	t.Helper()
	ref, _ := arch.ByName(refArch)
	run := func(a arch.Params, p int) Result {
		res, err := Run(newApp(), a, machine.Config{Nodes: p, ProcsPerNode: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	refRes := run(ref, 1)
	var curves []Curve
	for _, a := range archs {
		c := Curve{App: refRes.App, Arch: a.Name}
		for _, p := range procs {
			res := run(a, p)
			c.Procs = append(c.Procs, p)
			c.Times = append(c.Times, res.Time)
			c.Speedup = append(c.Speedup, float64(refRes.Time)/float64(res.Time))
		}
		curves = append(curves, c)
	}
	return curves
}

// TestParallelMatrixBitIdenticalToSerial is the contract of the worker
// pool: every cell owns an independent engine, so running the Figure 8
// matrix on 4 workers must produce byte-for-byte the curves of a serial
// run — times, speedups, ordering, everything.
func TestParallelMatrixBitIdenticalToSerial(t *testing.T) {
	newApp := factory(t, "Sample")
	archs := []arch.Params{arch.HW1, arch.MP1, arch.SW1}
	procs := []int{1, 2, 4}

	serial := serialSpeedups(t, newApp, archs, procs, "HW1")
	parallel, err := SpeedupsJ(newApp, archs, procs, "HW1", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel curves diverge from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	single, err := SpeedupsJ(newApp, archs, procs, "HW1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, single) {
		t.Fatalf("single-worker pool diverges from serial:\nserial: %+v\npool:   %+v", serial, single)
	}
}

// TestRunJobsOrderAndResults checks results land at their job's index
// regardless of completion order.
func TestRunJobsOrderAndResults(t *testing.T) {
	newApp := factory(t, "Sample")
	var jobs []Job
	want := []struct {
		archName string
		nodes    int
	}{{"HW1", 1}, {"MP1", 2}, {"SW1", 4}, {"MP1", 4}}
	for _, w := range want {
		a, _ := arch.ByName(w.archName)
		jobs = append(jobs, Job{Factory: newApp, Arch: a, Nodes: w.nodes, PPN: 1})
	}
	results, err := RunJobs(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if results[i].Arch != w.archName || results[i].Nodes != w.nodes {
			t.Errorf("result %d = %s %dx%d, want %s %dx1",
				i, results[i].Arch, results[i].Nodes, results[i].PPN, w.archName, w.nodes)
		}
		if results[i].Time <= 0 {
			t.Errorf("result %d has no elapsed time", i)
		}
	}
}

// TestPerJobTracersComposeWithParallelism is the contract of
// Options.Tracer: tracing no longer forces the pool serial (that was the
// process-global tracer's limitation), and each job's digest is identical
// whether the matrix ran on one worker or four — per-engine trace streams
// don't interleave.
func TestPerJobTracersComposeWithParallelism(t *testing.T) {
	newApp := factory(t, "Sample")
	cells := []struct {
		a     arch.Params
		nodes int
	}{
		{arch.MP1, 1}, {arch.MP1, 2}, {arch.HW1, 2}, {arch.SW1, 2},
	}
	run := func(workers int) []string {
		t.Helper()
		digests := make([]*trace.Digest, len(cells))
		jobs := make([]Job, len(cells))
		for i, c := range cells {
			digests[i] = trace.NewDigest()
			jobs[i] = Job{Factory: newApp, Arch: c.a, Nodes: c.nodes, PPN: 1,
				Opts: Options{Tracer: digests[i]}}
		}
		if _, err := RunJobs(jobs, workers); err != nil {
			t.Fatal(err)
		}
		sums := make([]string, len(digests))
		for i, d := range digests {
			if d.Count() == 0 {
				t.Fatalf("cell %d: tracer saw no events", i)
			}
			sums[i] = d.Sum()
		}
		return sums
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("per-job digests diverge between pool sizes:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}
