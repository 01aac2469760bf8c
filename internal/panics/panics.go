// Package panics turns a recovered panic into an error that names the
// frame that raised it. The router's wave goroutines, SolveBatch's
// workers and the service's pool workers recover through it, so a panic
// costs one net, instance or request and its error says where it came
// from.
package panics

import (
	"fmt"
	"path"
	"runtime"
	"strings"
)

// Error is the error a recovered panic value v becomes:
// "panicked: <v> at <function> (<file>:<line>)", with the frame site
// names. Call it from the deferred function that recovered v.
func Error(v any) error {
	return fmt.Errorf("panicked: %v at %s", v, site())
}

// site names the frame that raised the panic being recovered: the first
// frame after runtime.gopanic that is not in package runtime, so a
// runtime error (an index out of range, a nil dereference) names the
// code that made it, not the runtime's helpers. It reads
// "<function> (<file>:<line>)" with the file's base name. Called other
// than from a deferred function during a panic, it reads "unknown frame".
func site() string {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	panicking := false
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if panicking && !strings.HasPrefix(f.Function, "runtime.") {
			return fmt.Sprintf("%s (%s:%d)", f.Function, path.Base(f.File), f.Line)
		}
		panicking = panicking || f.Function == "runtime.gopanic"
	}
	return "unknown frame"
}
