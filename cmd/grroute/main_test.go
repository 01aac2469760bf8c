package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"costdist"
)

// buildGrroute compiles the command into a test temp dir.
func buildGrroute(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "grroute")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// -inctol takes a tolerance, not a mode: a negative value must fail the
// run with the router's error (which names Incremental=false) instead of
// silently switching to a full re-solve.
func TestNegativeIncTolIsAnError(t *testing.T) {
	bin := buildGrroute(t)
	out, err := exec.Command(bin, "-chip", "c1", "-scale", "0.002", "-waves", "1", "-incremental", "-inctol", "-1").CombinedOutput()
	if err == nil {
		t.Fatalf("grroute -inctol -1 succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "Incremental=false") {
		t.Fatalf("error does not name Incremental=false:\n%s", out)
	}
}

// A NaN tolerance would compare false against every drift, and no drift
// exceeds a +Inf one: either would freeze every cached tree after wave
// 0, so the router refuses both by name.
func TestNaNIncTolIsAnError(t *testing.T) {
	bin := buildGrroute(t)
	for tol, want := range map[string]string{"NaN": "IncrementalTol is NaN", "Inf": "IncrementalTol is +Inf"} {
		out, err := exec.Command(bin, "-chip", "c1", "-scale", "0.002", "-waves", "1", "-incremental", "-inctol", tol).CombinedOutput()
		if err == nil {
			t.Fatalf("grroute -inctol %s succeeded:\n%s", tol, out)
		}
		if !strings.Contains(string(out), want) {
			t.Fatalf("error does not name the %s tolerance:\n%s", tol, out)
		}
	}
}

// A run needs at least one wave: -waves 0 or -1 is a usage error
// (exit 2) naming the value, not a crash in the result assembly.
func TestWavesBelowOneIsAUsageError(t *testing.T) {
	bin := buildGrroute(t)
	for _, waves := range []string{"0", "-1"} {
		out, err := exec.Command(bin, "-chip", "c1", "-scale", "0.002", "-waves", waves).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("grroute -waves %s: %v, want exit 2:\n%s", waves, err, out)
		}
		if !strings.Contains(string(out), "-waves "+waves) {
			t.Fatalf("usage error does not name -waves %s:\n%s", waves, out)
		}
	}
}

// The router runs the repair rung only inside the dirty-net scheduler,
// so -repairtol ≥ 0 without -incremental would do nothing while the run
// reported "0 repaired": it is a usage error (exit 2) instead.
func TestRepairTolWithoutIncrementalIsAUsageError(t *testing.T) {
	bin := buildGrroute(t)
	out, err := exec.Command(bin, "-chip", "c1", "-scale", "0.002", "-waves", "1", "-repairtol", "0.25").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("grroute -repairtol without -incremental: %v, want exit 2:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-incremental") {
		t.Fatalf("usage error does not name -incremental:\n%s", out)
	}
}

// The -oracle help lists every name the resolver accepts, exact
// included, because it is built from the same list.
func TestOracleHelpListsEveryMethod(t *testing.T) {
	out, _ := exec.Command(buildGrroute(t), "-h").CombinedOutput()
	for _, name := range costdist.MethodNames() {
		if !strings.Contains(string(out), name) {
			t.Fatalf("-h does not list oracle %q:\n%s", name, out)
		}
	}
}
