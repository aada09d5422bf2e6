package prof

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mproxy/internal/trace/timeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

var allArchs = []string{"MP0", "MP1", "MP2", "HW0", "HW1", "SW1"}

// TestPhaseSumExact is the core invariant of the span assembler: for every
// architecture and operation, each completed span's phase intervals tile
// [Submit, Done] with no gap and no overlap, so the per-phase breakdown
// sums to the end-to-end KOpDone latency exactly — not approximately.
func TestPhaseSumExact(t *testing.T) {
	for _, archName := range allArchs {
		for _, op := range []string{"PUT", "GET"} {
			r, err := PingPong(Config{Arch: archName, Op: op})
			if err != nil {
				t.Fatalf("%s %s: %v", archName, op, err)
			}
			st := r.Asm.Stats()
			want := r.Cfg.Reps
			if op == "PUT" {
				want *= 2 // both directions
			}
			if st.Completed != want {
				t.Errorf("%s %s: completed %d spans, want %d", archName, op, st.Completed, want)
			}
			if st.LatencyMismatches != 0 || st.FallbackDone != 0 || st.OrphanDone != 0 ||
				st.UnattributedItems != 0 || st.FifoDesyncs != 0 || st.Approximate != 0 {
				t.Errorf("%s %s: attribution not exact: %+v", archName, op, st)
			}
			for _, s := range r.Asm.CompleteSpans() {
				if got, want := s.Total(), s.Done-s.Submit; got != want {
					t.Errorf("%s %s span %d: phase sum %d != lifetime %d", archName, op, s.ID, got, want)
				}
				if s.Done-s.Submit != s.Latency {
					t.Errorf("%s %s span %d: lifetime %d != KOpDone latency %d",
						archName, op, s.ID, s.Done-s.Submit, s.Latency)
				}
			}
		}
	}
}

// TestModelDelta checks the measured-vs-model acceptance bar on the
// calibrated serialized scenario: every phase of every architecture's
// PUT and GET must sit within 1 ns of the analytic phase prediction.
// The only deviation is nanosecond rounding of the simulated clock; the
// largest across the six design points is 0.86 ns (HW0 total, two
// rounded phases), 0.57 ns for a single phase (MP1 GET wire).
func TestModelDelta(t *testing.T) {
	for _, archName := range allArchs {
		for _, op := range []string{"PUT", "GET"} {
			r, err := PingPong(Config{Arch: archName, Op: op})
			if err != nil {
				t.Fatalf("%s %s: %v", archName, op, err)
			}
			rows := r.BreakdownRows()
			if len(rows) == 0 {
				t.Fatalf("%s %s: no breakdown rows", archName, op)
			}
			modeled := 0
			for _, row := range rows {
				if !row.Model {
					continue
				}
				modeled++
				if row.ModelUs == 0 {
					if row.MeasuredUs != 0 {
						t.Errorf("%s %s %s: measured %.4fus, model 0",
							archName, op, row.Phase, row.MeasuredUs)
					}
					continue
				}
				if d := math.Abs(row.MeasuredUs - row.ModelUs); d > 1e-3 {
					t.Errorf("%s %s %s: measured %.4fus vs model %.4fus (off by %.2f ns)",
						archName, op, row.Phase, row.MeasuredUs, row.ModelUs, 1e3*d)
				}
			}
			if modeled < 4 {
				t.Errorf("%s %s: only %d modeled rows", archName, op, modeled)
			}
		}
	}
}

// TestSpanRoutes checks flow reconstruction: an MP1 PUT visits the local
// and remote proxies in order.
func TestSpanRoutes(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "PUT"})
	if err != nil {
		t.Fatal(err)
	}
	spans := r.Asm.CompleteSpans()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	s := spans[0]
	if got, want := s.Flow(), "pinger>node0.proxy0>node1.proxy0"; got != want {
		t.Errorf("flow = %q, want %q", got, want)
	}
	if s.Probes == 0 {
		t.Errorf("span %d: no command-queue scan work attributed", s.ID)
	}
	if rep := s.Report(); rep == "" {
		t.Errorf("empty critical-path report")
	}
}

// TestTimelineWindows checks the sampler produced utilization windows for
// the proxies and links, with utilization in range.
func TestTimelineWindows(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "PUT", Reps: 64, PeriodNs: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	wins := r.Smp.Windows()
	if len(wins) == 0 {
		t.Fatal("no timeline windows")
	}
	kinds := map[string]int{}
	for _, w := range wins {
		kinds[w.Kind]++
		if w.End <= w.Start {
			t.Fatalf("window %+v: non-positive length", w)
		}
		if w.Util != -1 && (w.Util < -1e-9 || w.Util > 1+1e-9) {
			t.Errorf("window %+v: utilization out of range", w)
		}
		if w.Kind == "cmdq" && w.Depth < 0 {
			t.Errorf("cmdq window %+v: missing depth", w)
		}
	}
	for _, k := range []string{"proxy", "nic", "dma", "cmdq"} {
		if kinds[k] == 0 {
			t.Errorf("no %q windows (got %v)", k, kinds)
		}
	}
	// The proxy is meaningfully busy in a serialized ping-pong: some
	// window must show nonzero utilization.
	busy := false
	for _, w := range wins {
		if w.Kind == "proxy" && w.Util > 0 {
			busy = true
		}
	}
	if !busy {
		t.Error("all proxy windows idle")
	}
}

// TestChromeDeterminism renders the Chrome trace twice from independent
// runs and requires byte identity, then compares against the blessed
// golden (refresh with -update).
func TestChromeDeterminism(t *testing.T) {
	render := func() []byte {
		r, err := PingPong(Config{Arch: "MP1", Op: "PUT"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := timeline.ChromeTrace(r.Asm.Spans(), r.Smp.Windows())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("Chrome trace differs between identical runs")
	}
	golden := filepath.Join("testdata", "pingpong-mp1-chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("Chrome trace deviates from blessed golden %s; re-bless with -update if intended", golden)
	}
}

// TestProfileJSON checks the combined report is well-formed and
// deterministic.
func TestProfileJSON(t *testing.T) {
	r, err := PingPong(Config{Arch: "MP1", Op: "GET"})
	if err != nil {
		t.Fatal(err)
	}
	p := r.Profile()
	if p.CriticalPath == "" {
		t.Error("profile missing critical path")
	}
	j1, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PingPong(Config{Arch: "MP1", Op: "GET"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Profile().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("profile JSON differs between identical runs")
	}
}
