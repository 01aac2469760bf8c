package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"costdist"
)

// The -oracle help lists every name the resolver accepts, exact
// included, because it is built from the same list.
func TestOracleHelpListsEveryMethod(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "routed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, name := range costdist.MethodNames() {
		if !strings.Contains(string(out), name) {
			t.Fatalf("-h does not list oracle %q:\n%s", name, out)
		}
	}
}
