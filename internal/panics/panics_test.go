package panics

import (
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// recovered runs f and returns the error its panic became.
func recovered(f func()) (err error) {
	defer func() { err = Error(recover()) }()
	f()
	return nil
}

// line is the line number of its caller.
func line() int {
	_, _, l, _ := runtime.Caller(1)
	return l
}

var sink []int

// Error names the function, base file name and line that raised the
// panic, whether the code called panic itself or the runtime raised it
// for a fault, through any number of runtime helpers.
func TestErrorNamesPanickingFrame(t *testing.T) {
	var at int
	explicit := func() {
		at = line() + 1
		panic("boom")
	}
	index := func() {
		i := len(sink) + 3
		at = line() + 1
		sink[i]++
	}
	var p *[4]int
	nilDeref := func() {
		at = line() + 1
		p[1]++
	}
	for _, c := range []struct {
		name, value string
		f           func()
	}{
		{"explicit panic", "boom", explicit},
		{"index out of range", `runtime error: index out of range \[3\] with length 0`, index},
		{"nil dereference", `runtime error: invalid memory address or nil pointer dereference`, nilDeref},
	} {
		err := recovered(c.f)
		want := regexp.MustCompile(`^panicked: ` + c.value +
			` at costdist/internal/panics\.TestErrorNamesPanickingFrame\.func\d+ \(panics_test\.go:(\d+)\)$`)
		m := want.FindStringSubmatch(err.Error())
		if m == nil || m[1] != strconv.Itoa(at) {
			t.Errorf("%s: error %q, want it to match %s with line %d", c.name, err, want, at)
		}
	}
}

// Outside a panic there is no frame to name.
func TestSiteOutsidePanic(t *testing.T) {
	if s := site(); s != "unknown frame" {
		t.Fatalf("site() outside a panic = %q", s)
	}
}
