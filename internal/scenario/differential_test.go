package scenario

import (
	"bytes"
	"testing"
)

// diffScale picks the problem scale for the differential sweep at the
// running binary's scale: small under -short or the race detector.
func diffScale(spec Spec) Spec { return diffScaleAt(spec, smallScale()) }

// smallScale reports whether this test binary runs the reduced corpus.
func smallScale() bool { return testing.Short() || raceEnabled }

// diffScaleAt picks the problem scale for the differential sweep. The
// full preset scales cover the exact blessed workloads; the small scale
// (-short, or the race detector, which multiplies simulation cost several
// times over) drops the app-driven presets to test scale — the protocol
// paths exercised are the same, only the iteration counts shrink.
func diffScaleAt(spec Spec, small bool) Spec {
	if small {
		if spec.Scale != "" || spec.Kind == KindAppsFigure8 || spec.Kind == KindAppsTable6 {
			spec.Scale = "test"
		}
		if spec.Reps > 2 {
			spec.Reps = 2
		}
	}
	// The serving presets shrink unconditionally: the 1k-node sweeps issue
	// over a million requests each and belong to ci.sh full, not go test.
	// The shrunk runs still walk every protocol path (multi-switch routing,
	// replication fan-out, open-loop pacing).
	if spec.Kind == KindServing || spec.Kind == KindProxySweep {
		if spec.Topology.Nodes > 8 {
			spec.Topology.Nodes = 8
		}
		if sv := spec.Serving; sv != nil {
			shrunk := *sv
			if shrunk.Requests > 800 {
				shrunk.Requests = 800
			}
			if shrunk.Warmup > 100 {
				shrunk.Warmup = 100
			}
			if len(shrunk.LoadUs) > 2 {
				shrunk.LoadUs = shrunk.LoadUs[:2]
			}
			// The sweep grid shrinks to its interesting corner — every
			// policy, but only the multi-proxy count that exercises the
			// steal and shard paths alongside the single-proxy baseline.
			if len(shrunk.ProxyCounts) > 2 {
				shrunk.ProxyCounts = []int{1, 2}
			}
			spec.Serving = &shrunk
		}
	}
	return spec
}

// presetCase resolves a named preset into the spec the differential
// corpus runs (before scaling).
func presetCase(t *testing.T, name string) Spec {
	t.Helper()
	p, err := PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Spec
	if spec.Obs.Forensics != "" {
		// The preset's directory is relative to the repo root; write the
		// side-channel files somewhere real instead (stdout still carries
		// the forensics note, which names only basenames, so the output
		// digest covers the recorder path independently of the directory).
		spec.Obs.Forensics = t.TempDir()
	}
	return spec
}

// checkRecorded renders spec once at the given scale and checks (or,
// with -update, records) its output digest in table.
func checkRecorded(t *testing.T, table digestTable, spec Spec, small bool) {
	t.Helper()
	spec = diffScaleAt(spec, small)
	var buf bytes.Buffer
	mf, err := Run(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	table.check(t, spec.Name, small, mf)
}

// checkCases runs every case through checkRecorded — at this binary's
// scale, or at both scales under -update — and rewrites the digest table
// after an -update pass.
func checkCases(t *testing.T, cases []Spec, subName func(Spec) string) {
	table := readDigestTable(t)
	for _, spec := range cases {
		t.Run(subName(spec), func(t *testing.T) {
			if *update {
				checkRecorded(t, table, spec, false)
				checkRecorded(t, table, spec, true)
				return
			}
			checkRecorded(t, table, spec, smallScale())
		})
	}
	if *update && !t.Failed() {
		table.write(t)
	}
}

// TestDifferentialPresets renders every blessed preset once and requires
// its output to match, byte count and SHA-256, the digest recorded in
// testdata/preset_digests.txt. The rows were recorded while the agents
// still had a second, coroutine implementation that reproduced every one
// of them, so they stand in for that reference. The regress suite
// pins the raw event streams; this test pins the other end of the stack:
// every table, sweep and profile the repository publishes.
func TestDifferentialPresets(t *testing.T) {
	var cases []Spec
	for _, name := range PresetNames() {
		cases = append(cases, presetCase(t, name))
	}
	checkCases(t, cases, func(s Spec) string { return s.Name })
}

// multiProxyServingSpec is the explicit multi-proxy open-loop case: two
// proxies per node under each scheduling policy, heavy enough load that
// proxies actually contend (and, under steal, actually steal).
func multiProxyServingSpec(sched string) Spec {
	return Spec{
		Name: "diff-multiproxy-" + sched, Kind: KindServing,
		Archs:           []string{"MP1"},
		Topology:        Topology{Nodes: 8, Proxies: 2, ProxySched: sched},
		CommandQueueCap: 64,
		Serving: &ServingSpec{
			Topo: "fat-tree", Clients: 2,
			Requests: 800, Warmup: 100,
			LoadUs: []float64{160, 40},
		},
	}
}

// TestDifferentialMultiProxyServing pins the proxy-scheduling layer where
// it matters most: multi-proxy nodes under every policy, including the
// work-stealing path whose scan turns hop between sibling proxies, must
// render their recorded digests.
func TestDifferentialMultiProxyServing(t *testing.T) {
	var cases []Spec
	for _, sched := range []string{"static", "shard", "steal"} {
		cases = append(cases, multiProxyServingSpec(sched))
	}
	checkCases(t, cases, func(s Spec) string { return s.Topology.ProxySched })
}

// TestStealRepeatRunDigest pins the stealing policy's run-to-run
// determinism: the victim order is a pure function of (node, steal
// count), so two runs of the same spec must digest identically — any
// map iteration or pointer-keyed ordering sneaking into the steal path
// would flip the manifest hash between repeats.
func TestStealRepeatRunDigest(t *testing.T) {
	spec := multiProxyServingSpec("steal")
	var first Manifest
	for rep := 0; rep < 2; rep++ {
		var buf bytes.Buffer
		mf, err := Run(spec, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = mf
			continue
		}
		if mf != first {
			t.Fatalf("repeat run diverges:\n  first  %+v\n  second %+v", first, mf)
		}
	}
}
