package oracle

import (
	"testing"

	"costdist/internal/nets"
)

// SwapSolve replaces the solve function of the named oracle for the
// rest of the test, so tests can inject a faulty oracle into the
// router's dispatch.
func SwapSolve(t testing.TB, name string, solve func(*nets.Instance, *Env) (*nets.RTree, error)) {
	i := Index(name)
	if i < 0 {
		t.Fatalf("no oracle named %q", name)
	}
	old := table[i].solve
	table[i].solve = solve
	t.Cleanup(func() { table[i].solve = old })
}
