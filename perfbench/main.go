// Command perfbench is the repository benchmark: three named workloads
// (serve-1k, serve-hot, apps-smp) driven through the simulator's public
// entry points, with host-cost and simulated end-to-end metrics from an
// untraced timed pass and per-layer metrics from a separate traced pass.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines (host context, digests, every metric with its unit)
// come first; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. METRICS.md defines every
// metric and the layer each one belongs to.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics and its correctness tally. failed
// counts operations (requests, or application runs) whose check did not
// hold; fail_frac is failed/attempted.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	order     []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; its unit comes from the metric tables.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// zero records metrics that do not apply to a workload as 0.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// check records n attempted operations of which bad failed, with a note
// naming the check when bad > 0.
func (r *report) check(n, bad int64, what string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.notes = append(r.notes, fmt.Sprintf("FAIL (%d ops): ", bad)+fmt.Sprintf(what, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// params are the command-line inputs of one run.
type params struct {
	seed    uint64
	seconds float64
}

// bench runs one named workload: timed fills the end-to-end metrics,
// traced the per-layer ones.
type bench struct {
	timed  func(p params, r *report) error
	traced func(p params, r *report) error
}

var workloads = map[string]bench{
	"serve-1k":  {timed: serve1k.timed, traced: serve1k.traced},
	"serve-hot": {timed: serveHot.timed, traced: serveHot.traced},
	"apps-smp":  {timed: appsSMP.timed, traced: appsSMP.traced},
}

func main() {
	name := flag.String("workload", "", "workload: serve-1k, serve-hot or apps-smp")
	seed := flag.Uint64("seed", 1, "seed of the open-loop request generators")
	seconds := flag.Float64("seconds", 10, "host seconds the timed pass repeats its unit of work for")
	traced := flag.Int("trace", 0, "0: timed pass and end-to-end metrics; 1: traced pass and per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve-1k|serve-hot|apps-smp --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload %s, seed %d, %g s, trace %d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println("model: the serving model has no hardware reference; its sim_* numbers are modelled and unvalidated")

	r := newReport()
	p := params{seed: *seed, seconds: *seconds}
	run, want := w.timed, endToEnd
	if *traced == 1 {
		run, want = w.traced, perLayer
	}
	if err := run(p, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", *name)
		os.Exit(1)
	}
	if len(r.metrics) != len(want) {
		for _, m := range want {
			if _, ok := r.metrics[m.name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *name, m.name)
			}
		}
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("fail_frac %.6g (%d of %d)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, k := range r.order {
		m := r.metrics[k]
		fmt.Printf("%-28s %16.6g %s\n", k, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// repeat runs pass until seconds of host time have elapsed and at least
// minReps passes ran, calling runtime.GC before each so every pass starts
// from the same heap state. pass returns the host seconds of its measured
// calls; repeat returns them in pass order.
func repeat(seconds float64, minReps int, pass func(rep int) (float64, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < seconds; rep++ {
		runtime.GC()
		wall, err := pass(rep)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
	}
	fmt.Printf("unit-of-work host seconds:")
	for _, w := range walls {
		fmt.Printf(" %.3f", w)
	}
	fmt.Println()
	return walls, nil
}

// clock runs fn and returns its host seconds.
func clock(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mallocs returns the process's cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest hashes v's JSON encoding: the fingerprint of a run's simulated
// results, identical across runs of one seed.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
