package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
)

// Manifest is the deterministic record emitted alongside every run:
// enough to prove two invocations ran the same experiment and produced
// the same bytes. SpecSHA256 hashes the normalized spec's canonical
// JSON; OutputSHA256 digests everything the run wrote to its output
// writer. Both are pure functions of the spec, so a manifest mismatch
// is a real behavior change, never noise.
type Manifest struct {
	Name         string `json:"name,omitempty"`
	Kind         string `json:"kind"`
	SpecSHA256   string `json:"spec_sha256"`
	Seed         uint64 `json:"seed"`
	OutputSHA256 string `json:"output_sha256"`
	OutputBytes  int64  `json:"output_bytes"`
}

// JSON encodes the manifest as a single JSON line.
func (m Manifest) JSON() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// Manifest has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("scenario: marshal manifest: %v", err))
	}
	return append(b, '\n')
}

// specHash returns the sha256 of the normalized spec's canonical JSON.
func specHash(s Spec) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("scenario: hash spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digestWriter tees writes into a sha256 so the run's manifest can
// report the exact output digest without buffering the output.
type digestWriter struct {
	w io.Writer
	h hash.Hash
	n int64
}

func newDigestWriter(w io.Writer) *digestWriter {
	return &digestWriter{w: w, h: sha256.New()}
}

func (d *digestWriter) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	d.h.Write(p[:n])
	d.n += int64(n)
	return n, err
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
