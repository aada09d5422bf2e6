package regress

import (
	"runtime"
	"testing"

	"mproxy/internal/trace"
)

// perEvent hides a tracer's batch interface, so the engine delivers the
// stream through one Record call per occurrence instead of staging it in
// chunks — the path taken by live-state tracers such as the timeline
// sampler.
type perEvent struct{ trace.Tracer }

// runScenarioSerial replays sc with per-event trace delivery while the Go
// scheduler is held to a single OS thread, so every Proc hand-off and
// every traced occurrence takes the other host-side path from the
// default run.
func runScenarioSerial(t *testing.T, sc Scenario) *trace.Digest {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	d := trace.NewDigest()
	sc.Run(perEvent{d})
	return d
}

// TestDifferentialExecModes holds every golden scenario to one event
// stream across the host-side execution modes that must not reach the
// model: batched versus per-event trace delivery, and a multi-threaded
// versus a single-threaded Go scheduler under the coroutine Procs that
// run user code. The golden files pin the stream across time; this test
// pins it across the host's execution paths, so a batching or hand-off
// ordering drift cannot hide behind a re-bless.
func TestDifferentialExecModes(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			batched := runScenario(t, sc)
			serial := runScenarioSerial(t, sc)
			if batched.Count() != serial.Count() {
				t.Fatalf("event counts diverge: batched %d, per-event serial %d",
					batched.Count(), serial.Count())
			}
			if batched.LastAt() != serial.LastAt() {
				t.Fatalf("final timestamps diverge: batched %d, per-event serial %d",
					batched.LastAt(), serial.LastAt())
			}
			if batched.Sum() != serial.Sum() {
				t.Fatalf("trace digests diverge over %d events:\n  batched           %s\n  per-event serial  %s",
					batched.Count(), batched.Sum(), serial.Sum())
			}
		})
	}
}
