package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown kind", Spec{Kind: "nonsense"}, "unknown kind"},
		{"unknown arch", Spec{Kind: KindMicroTable4, Archs: []string{"MP9"}}, "unknown architecture"},
		{"unknown app", Spec{Kind: KindAppsFigure8, Apps: []string{"Doom"}}, "unknown application"},
		{"unknown scale", Spec{Kind: KindAppsFigure8, Scale: "enormous"}, "unknown scale"},
		{"zero procs", Spec{Kind: KindAppsFigure8, Procs: []int{4, 0}}, "processor count"},
		{"zero sweep size", Spec{Kind: KindMicroSweep, Sizes: []int{8, 0}}, "message size"},
		{"negative reps", Spec{Kind: KindProf, Reps: -1}, "iteration count"},
		{"negative heap", Spec{Kind: KindAppsFigure8, HeapBytes: -1}, "heap size"},
		{"negative queue cap", Spec{Kind: KindMicroTable4, CommandQueueCap: -1}, "command-queue capacity"},
		{"bad op", Spec{Kind: KindProf, Ops: []string{"CAS"}}, "unsupported op"},
		{"rate out of range", Spec{Kind: KindLoss, Rates: []float64{0.5, 1.5}}, "drop rate"},
		{"bad fault spec", Spec{Kind: KindMicroTable4, Fault: FaultSpec{Spec: "drop=notanumber"}}, "fault"},
		{"bad topology", Spec{Kind: KindSMP, Topology: Topology{Nodes: -2}}, "topology"},
		{"bad format", Spec{Kind: KindMicroSweep, Out: OutSpec{Format: "xml"}}, "format"},
		{"bad metrics", Spec{Kind: KindMicroTable4, Obs: ObsSpec{Metrics: "yaml"}}, "metrics"},
		{"serving syscall arch", Spec{Kind: KindServing, Archs: []string{"SW1"}}, "syscall design point"},
		{"serving fault spec", Spec{Kind: KindServing, Fault: FaultSpec{Spec: "drop=1e-3"}}, "fault injection"},
		{"serving bad topo", Spec{Kind: KindServing, Serving: &ServingSpec{Topo: "torus"}}, "serving topology"},
		{"serving bad arrival", Spec{Kind: KindServing, Serving: &ServingSpec{Arrival: "bursty"}}, "arrival process"},
		{"serving negative count", Spec{Kind: KindServing, Serving: &ServingSpec{Clients: -1}}, "non-negative"},
		{"serving zero load point", Spec{Kind: KindServing, Serving: &ServingSpec{LoadUs: []float64{40, 0}}}, "load points"},
		{"bad proxy sched", Spec{Kind: KindServing, Topology: Topology{ProxySched: "round-robin"}}, "unknown sched policy"},
		{"serving takes no sweep grid", Spec{Kind: KindServing, Serving: &ServingSpec{ProxyCounts: []int{1, 2}}}, "proxy-sweep kind"},
		{"proxy-sweep zero count", Spec{Kind: KindProxySweep, Serving: &ServingSpec{ProxyCounts: []int{2, 0}}}, "proxy counts"},
		{"proxy-sweep bad policy", Spec{Kind: KindProxySweep, Serving: &ServingSpec{Scheds: []string{"static", "rr"}}}, "unknown sched policy"},
		{"proxy-sweep non-proxy arch", Spec{Kind: KindProxySweep, Archs: []string{"HW1"}}, "message-proxy design points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			s.Normalize()
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsEveryPreset(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Spec
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		p, _ := PresetByName(name)
		s := p.Spec
		s.Normalize()
		data, err := s.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: round trip changed the spec:\nbefore %+v\nafter  %+v", name, s, back)
		}
	}
}

// TestProxySchedJSONRoundTrip pins the scheduling layer's spec surface:
// the policy knob and the sweep grid survive a JSON round trip both as
// raw fields and through Normalize's defaulting, and an existing spec
// with no proxy_sched normalizes without gaining one (its hash — and
// so every blessed manifest — is unchanged by this layer).
func TestProxySchedJSONRoundTrip(t *testing.T) {
	s := Spec{
		Kind:     KindProxySweep,
		Topology: Topology{Nodes: 8, ProxySched: "steal"},
		Serving:  &ServingSpec{ProxyCounts: []int{1, 4}, Scheds: []string{"shard", "steal"}},
	}.Normalize()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"proxy_sched": "steal"`) ||
		!strings.Contains(string(data), `"proxy_counts"`) ||
		!strings.Contains(string(data), `"scheds"`) {
		t.Fatalf("spec JSON missing proxy-sched fields:\n%s", data)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed the spec:\nbefore %+v\nafter  %+v", s, back)
	}

	plain := Spec{Kind: KindServing}.Normalize()
	if plain.Topology.ProxySched != "" {
		t.Errorf("Normalize invented a proxy_sched %q; existing spec hashes would change", plain.Topology.ProxySched)
	}
	pdata, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(pdata), "proxy_sched") || strings.Contains(string(pdata), "proxy_counts") {
		t.Errorf("default serving spec JSON leaks proxy-sched fields:\n%s", pdata)
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct{ json, field string }{
		{`{"kind":"model","warp_factor":9}`, "warp_factor"},
		// Sharded execution is a library mode, not a spec knob.
		{`{"kind":"serving","topology":{"sim_shards":2}}`, "sim_shards"},
	} {
		_, err := ParseJSON([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: unknown field accepted", tc.json)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %q", tc.json, err, tc.field)
		}
	}
}

// Every checked-in results table must have a preset that regenerates
// it, and every preset's Results must point at a real file.
func TestPresetsCoverResults(t *testing.T) {
	files, err := filepath.Glob("../../results/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no results files found: %v", err)
	}
	covered := map[string]string{}
	for _, name := range PresetNames() {
		p, _ := PresetByName(name)
		if p.Results == "" {
			continue
		}
		if prev, dup := covered[p.Results]; dup {
			t.Errorf("results/%s claimed by both %s and %s", p.Results, prev, name)
		}
		covered[p.Results] = name
		if _, err := os.Stat(filepath.Join("../../results", p.Results)); err != nil {
			t.Errorf("preset %s points at missing results/%s", name, p.Results)
		}
	}
	for _, f := range files {
		if _, ok := covered[filepath.Base(f)]; !ok {
			t.Errorf("results/%s has no preset regenerating it", filepath.Base(f))
		}
	}
}

// Golden manifest: the spec hash and output digest of a cheap preset
// are part of the repository's deterministic contract. Update these
// constants deliberately when the spec schema or table output changes.
func TestRunManifestGolden(t *testing.T) {
	p, _ := PresetByName("table3")
	var out bytes.Buffer
	m, err := Run(p.Spec, &out)
	if err != nil {
		t.Fatal(err)
	}
	want := Manifest{
		Name:         "table3",
		Kind:         KindMicroParams,
		SpecSHA256:   "c27ac8bfa8b12e4421ade41ea91951fd5dd77555dcaa2644eb644cfae3c9484e",
		Seed:         1,
		OutputSHA256: "b645d3c20dbf1dd0c37d4b7421c89b4f1b0d865f13454fcbd4dc494f5300c486",
		OutputBytes:  1032,
	}
	if m != want {
		t.Errorf("manifest drifted:\ngot  %+v\nwant %+v", m, want)
	}
}

// The manifest must be a pure function of the spec: two runs of the
// same preset produce identical manifests and identical bytes.
func TestRunIsDeterministic(t *testing.T) {
	p, _ := PresetByName("section4-model")
	var a, b bytes.Buffer
	ma, err := Run(p.Spec, &a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Run(p.Spec, &b)
	if err != nil {
		t.Fatal(err)
	}
	if ma != mb {
		t.Errorf("manifests differ: %+v vs %+v", ma, mb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("output bytes differ between identical runs")
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(Spec{Kind: "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}
