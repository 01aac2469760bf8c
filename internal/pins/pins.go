// Package pins reads and regenerates the results the tests pin under the
// repository's testdata/ directory: route digests, work counts, certified
// gaps, the paper tables and the search digests. Each pinning test computes
// its result, hands the bytes it would commit to File or JSON, and compares
// what comes back with its own exact rule.
//
// One switch regenerates every pin: with PINS_UPDATE set,
//
//	PINS_UPDATE=1 go test ./...
//
// rewrites each pinned file whose bytes differ from the computed ones, so
// `git diff testdata` shows what moved. Only this package reads it.
package pins

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// updateVar names the environment variable that turns on regeneration.
const updateVar = "PINS_UPDATE"

// File returns the committed bytes at path. Under PINS_UPDATE it first
// writes got there, creating the directory, when the two differ, so the
// caller's comparison then passes. A missing file fails t with the
// command that creates it.
func File(t testing.TB, path string, got []byte) []byte {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.Getenv(updateVar) != "" && (err != nil || !bytes.Equal(want, got)) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return got
	}
	if err != nil {
		t.Fatalf("reading %s (run with %s=1 to create): %v", path, updateVar, err)
	}
	return want
}

// JSON pins got as indented JSON at path, as File does, and decodes the
// committed document into want.
func JSON(t testing.TB, path string, got, want any) {
	t.Helper()
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(File(t, path, append(blob, '\n')), want); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}
