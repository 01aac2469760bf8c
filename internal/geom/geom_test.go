package geom

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestL1Basic(t *testing.T) {
	cases := []struct {
		a, b Pt
		want int64
	}{
		{Pt{0, 0}, Pt{0, 0}, 0},
		{Pt{0, 0}, Pt{3, 4}, 7},
		{Pt{-2, 5}, Pt{2, -5}, 14},
		{Pt{7, 7}, Pt{7, 9}, 2},
	}
	for _, c := range cases {
		if got := L1(c.a, c.b); got != c.want {
			t.Errorf("L1(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := L1(c.b, c.a); got != c.want {
			t.Errorf("L1 not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestL1TriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt{int32(ax), int32(ay)}
		b := Pt{int32(bx), int32(by)}
		c := Pt{int32(cx), int32(cy)}
		return L1(a, c) <= L1(a, b)+L1(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedian3MinimizesStar(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for it := 0; it < 200; it++ {
		a := Pt{int32(rng.IntN(20)), int32(rng.IntN(20))}
		b := Pt{int32(rng.IntN(20)), int32(rng.IntN(20))}
		c := Pt{int32(rng.IntN(20)), int32(rng.IntN(20))}
		m := Median3(a, b, c)
		best := L1(m, a) + L1(m, b) + L1(m, c)
		for x := int32(0); x < 20; x++ {
			for y := int32(0); y < 20; y++ {
				p := Pt{x, y}
				if s := L1(p, a) + L1(p, b) + L1(p, c); s < best {
					t.Fatalf("Median3(%v,%v,%v)=%v cost %d beaten by %v cost %d", a, b, c, m, best, p, s)
				}
			}
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := EmptyRect()
	if !r.Empty() {
		t.Fatal("EmptyRect not empty")
	}
	if r.W() != 0 || r.H() != 0 || r.HalfPerimeter() != 0 {
		t.Fatal("empty rect dims not zero")
	}
	r = r.Add(Pt{3, 4})
	r = r.Add(Pt{7, 2})
	want := Rect{3, 2, 7, 4}
	if r != want {
		t.Fatalf("Add: got %v want %v", r, want)
	}
	if r.W() != 5 || r.H() != 3 {
		t.Fatalf("dims wrong: W=%d H=%d", r.W(), r.H())
	}
	if r.HalfPerimeter() != 6 {
		t.Fatalf("HPWL = %d want 6", r.HalfPerimeter())
	}
	if !r.Contains(Pt{3, 2}) || !r.Contains(Pt{7, 4}) || r.Contains(Pt{8, 4}) || r.Contains(Pt{3, 1}) {
		t.Fatal("Contains wrong at boundaries")
	}
}

func TestRectExpandClamp(t *testing.T) {
	r := Rect{1, 1, 2, 2}.Expand(5, 10, 8)
	if r != (Rect{0, 0, 7, 7}) {
		t.Fatalf("Expand clamp: got %v", r)
	}
	r = Rect{4, 4, 5, 5}.Expand(1, 100, 100)
	if r != (Rect{3, 3, 6, 6}) {
		t.Fatalf("Expand: got %v", r)
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{5, 1, 6, 9}
	u := a.Union(b)
	if u != (Rect{0, 0, 6, 9}) {
		t.Fatalf("Union: got %v", u)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Fatalf("Union with empty: got %v", got)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Fatalf("empty Union: got %v", got)
	}
}

func TestBBoxCoversAll(t *testing.T) {
	f := func(coords []int16) bool {
		if len(coords) < 2 {
			return true
		}
		pts := make([]Pt, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, Pt{int32(coords[i]), int32(coords[i+1])})
		}
		r := BBox(pts)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectIntersects(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	randRect := func() Rect {
		x, y := rng.Int32N(20), rng.Int32N(20)
		return Rect{X0: x, Y0: y, X1: x + rng.Int32N(6), Y1: y + rng.Int32N(6)}
	}
	for iter := 0; iter < 2000; iter++ {
		a, b := randRect(), randRect()
		brute := false
		for x := a.X0; x <= a.X1 && !brute; x++ {
			for y := a.Y0; y <= a.Y1; y++ {
				if b.Contains(Pt{x, y}) {
					brute = true
					break
				}
			}
		}
		if got := a.Intersects(b); got != brute {
			t.Fatalf("Intersects(%+v, %+v) = %v, brute force %v", a, b, got, brute)
		}
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("Intersects not symmetric for %+v, %+v", a, b)
		}
	}
	if (Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}).Intersects(EmptyRect()) {
		t.Fatal("empty rect must not intersect")
	}
}
