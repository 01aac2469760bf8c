package nets

import (
	"testing"

	"costdist/internal/geom"
)

func TestPinSigEqual(t *testing.T) {
	base := PinSig{
		Driver: geom.Pt{X: 1, Y: 2},
		Sinks:  []geom.Pt{{X: 3, Y: 4}, {X: 5, Y: 6}},
	}
	same := PinSig{
		Driver: geom.Pt{X: 1, Y: 2},
		Sinks:  []geom.Pt{{X: 3, Y: 4}, {X: 5, Y: 6}},
	}
	if !base.Equal(same) {
		t.Fatal("identical signatures reported unequal")
	}
	cases := []struct {
		name string
		sig  PinSig
	}{
		{"moved driver", PinSig{Driver: geom.Pt{X: 0, Y: 2}, Sinks: same.Sinks}},
		{"moved sink", PinSig{Driver: base.Driver, Sinks: []geom.Pt{{X: 3, Y: 4}, {X: 5, Y: 7}}}},
		{"dropped sink", PinSig{Driver: base.Driver, Sinks: []geom.Pt{{X: 3, Y: 4}}}},
		{"added sink", PinSig{Driver: base.Driver, Sinks: []geom.Pt{{X: 3, Y: 4}, {X: 5, Y: 6}, {X: 7, Y: 8}}}},
		// Per-sink state is positional, so pin order is significant.
		{"reordered sinks", PinSig{Driver: base.Driver, Sinks: []geom.Pt{{X: 5, Y: 6}, {X: 3, Y: 4}}}},
	}
	for _, c := range cases {
		if base.Equal(c.sig) {
			t.Errorf("%s reported equal", c.name)
		}
	}
}
