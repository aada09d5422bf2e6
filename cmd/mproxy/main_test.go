package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the smoke-test goldens")

// Every subcommand runs in-process against a small configuration and
// must reproduce its blessed golden byte for byte. Regenerate with
//
//	go test ./cmd/mproxy -run TestSmoke -update
func TestSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"micro-params", []string{"micro", "-params"}},
		{"micro-table4-mp1", []string{"micro", "-archs", "MP1"}},
		{"micro-sweep-csv", []string{"micro", "-sweep", "-csv", "-archs", "MP1"}},
		{"apps-list", []string{"apps", "-list"}},
		{"apps-figure8-small", []string{"apps", "-scale", "test", "-apps", "Sample", "-procs", "1,2", "-archs", "HW1,MP1"}},
		{"apps-table6-test", []string{"apps", "-table6", "-scale", "test", "-apps", "Sample"}},
		{"model-default", []string{"model"}},
		{"model-fast-cpu", []string{"model", "-S", "2"}},
		{"smp-small", []string{"smp", "-scale", "test", "-apps", "Sample", "-archs", "MP1", "-nodes", "2", "-ppn", "2"}},
		{"queue-test", []string{"queue", "-scale", "test", "-apps", "Sample,LU"}},
		{"fault-sweep", []string{"fault", "-archs", "MP1", "-rates", "0,1e-3", "-csv"}},
		{"fault-injected-micro", []string{"micro", "-archs", "MP1", "-fault", "drop=1e-3"}},
		{"prof-put-mp1", []string{"prof", "-archs", "MP1", "-op", "PUT"}},
		{"trace-digest", []string{"micro", "-archs", "MP1", "-trace"}},
		{"run-preset", []string{"run", "table3"}},
		{"list", []string{"list"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stdout.Bytes(), want)
			}
		})
	}
}

// An unknown preset name must fail with an error that lists every
// available preset, pinned by a golden so the listing stays wired up.
func TestUnknownPresetListsNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "no-such-preset"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	golden := filepath.Join("testdata", "run-unknown-preset.golden")
	if *update {
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("stderr drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stderr.Bytes(), want)
	}
	for _, name := range []string{"table3", "serving-fattree-1k", "serving-smoke"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-preset error does not list %s:\n%s", name, stderr.String())
		}
	}
}

// A forensics run pointed at a missing directory must fail before any
// simulation happens, with a clear error naming the path; pinned by a
// golden like the unknown-preset message.
func TestForensicsBadDirErrorsEarly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-forensics", "no-such-dir", "serving-smoke-forensics"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty — the run simulated before failing:\n%s", stdout.String())
	}
	golden := filepath.Join("testdata", "run-forensics-bad-dir.golden")
	if *update {
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("stderr drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stderr.Bytes(), want)
	}
}

// The forensics preset regenerates its three checked-in side-channel
// files byte-identically into any directory: the slowest-requests
// table, the windowed series JSON, and the Chrome exemplar trace.
func TestForensicsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep is not short")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-forensics", dir, "serving-smoke-forensics"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "forensics: wrote serving_smoke_forensics.slowest.txt") {
		t.Errorf("stdout missing the forensics note:\n%s", stdout.String())
	}
	for _, f := range []string{
		"serving_smoke_forensics.slowest.txt",
		"serving_smoke_forensics.flight.json",
		"serving_smoke_forensics.chrome.json",
	} {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("forensics run did not write %s: %v", f, err)
		}
		blessed := filepath.Join("..", "..", "results", "forensics", f)
		if *update {
			if err := os.WriteFile(blessed, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(blessed)
		if err != nil {
			t.Fatalf("missing blessed forensics file (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s no longer reproduces results/forensics/%s byte-identically", f, f)
		}
	}
}

// Experiment subcommands emit exactly one manifest JSON line on stderr.
func TestManifestOnStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"micro", "-params"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var m struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Spec   string `json:"spec_sha256"`
		Output string `json:"output_sha256"`
		Bytes  int    `json:"output_bytes"`
	}
	if err := json.Unmarshal(stderr.Bytes(), &m); err != nil {
		t.Fatalf("stderr is not one manifest JSON line: %q", stderr.String())
	}
	if m.Kind != "micro-params" || len(m.Spec) != 64 || len(m.Output) != 64 {
		t.Errorf("implausible manifest: %+v", m)
	}
	if m.Bytes != stdout.Len() {
		t.Errorf("manifest counts %d output bytes, stdout has %d", m.Bytes, stdout.Len())
	}
}

// Identical invocations produce identical manifests: the digest pair is
// the reproducibility contract.
func TestManifestDeterministic(t *testing.T) {
	grab := func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"fault", "-archs", "MP1", "-rates", "1e-3"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d", code)
		}
		return stderr.String()
	}
	if a, b := grab(), grab(); a != b {
		t.Errorf("manifests differ between identical runs:\n%s%s", a, b)
	}
}

// The cheap presets must regenerate their checked-in results tables
// byte-identically; the expensive ones are covered by ci.sh.
func TestResultsByteIdentity(t *testing.T) {
	cheap := []string{"section4-model", "table3", "table4", "figure7"}
	if !testing.Short() {
		cheap = append(cheap, "table6", "section54-queueing", "serving-smoke")
	}
	for _, name := range cheap {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"run", name}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			path := map[string]string{
				"section4-model":     "section4_model.txt",
				"table3":             "table3.txt",
				"table4":             "table4.txt",
				"figure7":            "figure7.txt",
				"table6":             "table6.txt",
				"section54-queueing": "section54_queueing.txt",
				"serving-smoke":      "serving_smoke.txt",
			}[name]
			want, err := os.ReadFile(filepath.Join("..", "..", "results", path))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("mproxy run %s no longer reproduces results/%s byte-identically", name, path)
			}
		})
	}
}

// A spec file round-trips through mproxy run.
func TestRunSpecFile(t *testing.T) {
	spec := `{"kind": "model"}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromFlags bytes.Buffer
	if code := run([]string{"run", path}, &fromFile, &bytes.Buffer{}); code != 0 {
		t.Fatal("run spec.json failed")
	}
	if code := run([]string{"model"}, &fromFlags, &bytes.Buffer{}); code != 0 {
		t.Fatal("model failed")
	}
	if !bytes.Equal(fromFile.Bytes(), fromFlags.Bytes()) {
		t.Error("spec-file run differs from flag run of the same experiment")
	}
}

func TestBadInvocations(t *testing.T) {
	// A 1-node cluster has no multi-switch topology: the spec must fail
	// validation, not panic inside a load-point worker.
	dir := t.TempDir()
	oneNode := map[string]string{
		"serving-fattree-1node.json":      `{"kind":"serving","topology":{"nodes":1}}`,
		"proxysweep-dragonfly-1node.json": `{"kind":"proxy-sweep","topology":{"nodes":1},"serving":{"topo":"dragonfly"}}`,
	}
	for name, spec := range oneNode {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		args []string
		code int
		want string // stderr substring; empty checks only the exit code
	}{
		{nil, 2, ""},
		{[]string{"frobnicate"}, 2, ""},
		{[]string{"run"}, 2, ""},
		{[]string{"run", "no-such-preset"}, 1, ""},
		{[]string{"run", "-shards", "2", "serving-smoke"}, 2, "-shards"},
		{[]string{"run", filepath.Join(dir, "serving-fattree-1node.json")}, 1, "fat-tree needs >= 2 nodes"},
		{[]string{"run", filepath.Join(dir, "proxysweep-dragonfly-1node.json")}, 1, "dragonfly needs >= 2 nodes"},
		{[]string{"micro", "-archs", "MP9"}, 1, ""},
		{[]string{"apps", "-procs", "two"}, 2, ""},
		{[]string{"fault", "-rates", "many"}, 2, ""},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("run(%v) exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("run(%v) stderr %q: want an error naming %q and no goroutine trace", tc.args, stderr.String(), tc.want)
		}
	}
}

func TestHelpListsEverySubcommand(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"help"}, &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatal("help failed")
	}
	for _, name := range []string{"micro", "apps", "model", "smp", "queue", "fault", "prof", "run", "list"} {
		if !strings.Contains(stdout.String(), "\n  "+name) {
			t.Errorf("help output missing subcommand %s", name)
		}
	}
}
