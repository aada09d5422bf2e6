package scenario

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/preset_digests.txt")

// digestPath is the recorded-digest table: one row per (case, scale) of
// the differential corpus, holding the rendered output's SHA-256 and
// byte count. The rows were recorded while the blocking coroutine agents
// and the run-to-completion agents were still both in the tree and
// proven bit-identical on every row, so they are the reference each run
// is compared against.
var digestPath = filepath.Join("testdata", "preset_digests.txt")

// digestKey names one row: the case's spec name and its scale.
type digestKey struct {
	name  string
	scale string // "default" or "small" (see diffScaleAt)
}

// digestRow is one recorded output fingerprint.
type digestRow struct {
	sha   string
	bytes int64
}

type digestTable map[digestKey]digestRow

func scaleName(small bool) string {
	if small {
		return "small"
	}
	return "default"
}

// readDigestTable loads the recorded table; a missing file reads as empty
// (every check then fails with the -update hint).
func readDigestTable(t *testing.T) digestTable {
	t.Helper()
	table := digestTable{}
	f, err := os.Open(digestPath)
	if os.IsNotExist(err) {
		return table
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			t.Fatalf("%s:%d: want 4 fields, got %q", digestPath, line, text)
		}
		n, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: %v", digestPath, line, err)
		}
		table[digestKey{fields[0], fields[1]}] = digestRow{sha: fields[2], bytes: n}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}

// check compares a run's manifest against the recorded row, or records
// it under -update.
func (tb digestTable) check(t *testing.T, name string, small bool, mf Manifest) {
	t.Helper()
	key := digestKey{name, scaleName(small)}
	got := digestRow{sha: mf.OutputSHA256, bytes: mf.OutputBytes}
	if *update {
		tb[key] = got
		return
	}
	want, ok := tb[key]
	if !ok {
		t.Fatalf("%s has no row for %s at %s scale (record with: go test ./internal/scenario -run 'TestDifferential(Presets|MultiProxyServing)$' -update)",
			digestPath, name, key.scale)
	}
	if got != want {
		t.Fatalf("%s at %s scale: output %d bytes (sha %s), recorded %d bytes (sha %s)",
			name, key.scale, got.bytes, got.sha, want.bytes, want.sha)
	}
}

// write rewrites the table file, rows sorted by case then scale.
func (tb digestTable) write(t *testing.T) {
	t.Helper()
	keys := make([]digestKey, 0, len(tb))
	for k := range tb {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].scale < keys[j].scale
	})
	var b strings.Builder
	b.WriteString("# Recorded output digests of the differential corpus (see digests_test.go).\n")
	b.WriteString("# case scale output_sha256 output_bytes\n")
	for _, k := range keys {
		r := tb[k]
		fmt.Fprintf(&b, "%s %s %s %d\n", k.name, k.scale, r.sha, r.bytes)
	}
	if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d rows in %s", len(keys), digestPath)
}
