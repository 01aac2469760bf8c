package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// -inctol takes a tolerance, not a mode: a negative value must fail the
// run with the router's error (which names Incremental=false) instead of
// silently switching to a full re-solve.
func TestNegativeIncTolIsAnError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "grroute")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-chip", "c1", "-scale", "0.002", "-waves", "1", "-incremental", "-inctol", "-1").CombinedOutput()
	if err == nil {
		t.Fatalf("grroute -inctol -1 succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "Incremental=false") {
		t.Fatalf("error does not name Incremental=false:\n%s", out)
	}
}
