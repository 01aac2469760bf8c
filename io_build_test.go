package costdist

import (
	"runtime"
	"testing"
)

// A document whose pins lie outside its grid is rejected before the grid
// is built: the refusal of a 1024×1024×8 document (8 M vertices) costs
// its own decode, not the grid's hundreds of megabytes.
func TestBuildValidatesBeforeAllocating(t *testing.T) {
	for _, tc := range []struct{ doc, wantErr string }{
		{`{"nx":1024,"ny":1024,"layers":8,"root":[0,0,0],"sinks":[{"x":1,"y":1,"l":0,"w":1},{"x":5000,"y":1,"l":0,"w":1}]}`,
			"sink 1: costdist: pin (5000,1,0) outside grid"},
		{`{"nx":1024,"ny":1024,"layers":8,"root":[0,0,8],"sinks":[{"x":1,"y":1,"l":0,"w":1}]}`,
			"costdist: pin (0,0,8) outside grid"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseInstance([]byte(tc.doc))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("error %v, want %q", err, tc.wantErr)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Fatalf("rejecting %s allocated %d bytes, want under 64 KB", tc.doc, b)
		}
	}
}

// A congestion rectangle is clipped to the grid, not walked: one that
// spans all of int32 prices exactly the segments of the full-grid one.
func TestCongestionRectClippedToGrid(t *testing.T) {
	const head = `{"nx":6,"ny":6,"layers":2,"root":[0,0,0],"sinks":[{"x":5,"y":5,"l":1,"w":1}],"congestion":[`
	huge, err := ParseInstance([]byte(head + `{"x0":-2147483648,"y0":-2147483648,"x1":2147483647,"y1":2147483647,"l":0,"mult":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ParseInstance([]byte(head + `{"x0":0,"y0":0,"x1":5,"y1":5,"l":0,"mult":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	priced := 0
	for i, m := range huge.C.Mult {
		if m != full.C.Mult[i] {
			t.Fatalf("segment %d: multiplier %v, full-grid rectangle gives %v", i, m, full.C.Mult[i])
		}
		if m == 3 {
			priced++
		}
	}
	if priced == 0 {
		t.Fatalf("rectangle priced %d segments", priced)
	}
}
