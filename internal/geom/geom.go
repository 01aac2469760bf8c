// Package geom provides plane geometry primitives used throughout the
// cost-distance Steiner tree library: integer points in the gcell plane,
// L1 (rectilinear) metrics and bounding rectangles.
package geom

// Pt is a point in the gcell plane. Coordinates are gcell indices.
type Pt struct {
	X, Y int32
}

// L1 returns the rectilinear distance between a and b in gcell units.
func L1(a, b Pt) int64 {
	return absi64(int64(a.X)-int64(b.X)) + absi64(int64(a.Y)-int64(b.Y))
}

func absi64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Median3 returns the component-wise median of three points. It is the
// unique point minimizing the sum of L1 distances to a, b and c and is
// the canonical Steiner point candidate for a triple.
func Median3(a, b, c Pt) Pt {
	return Pt{X: med3(a.X, b.X, c.X), Y: med3(a.Y, b.Y, c.Y)}
}

func med3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Rect is an axis-aligned rectangle with inclusive bounds.
type Rect struct {
	X0, Y0, X1, Y1 int32
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union/Add.
func EmptyRect() Rect {
	const big = int32(1) << 30
	return Rect{X0: big, Y0: big, X1: -big, Y1: -big}
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.X0 > r.X1 || r.Y0 > r.Y1 }

// Contains reports whether p lies inside r (bounds inclusive).
func (r Rect) Contains(p Pt) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Add extends r to cover p.
func (r Rect) Add(p Pt) Rect {
	if p.X < r.X0 {
		r.X0 = p.X
	}
	if p.X > r.X1 {
		r.X1 = p.X
	}
	if p.Y < r.Y0 {
		r.Y0 = p.Y
	}
	if p.Y > r.Y1 {
		r.Y1 = p.Y
	}
	return r
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if s.Empty() {
		return r
	}
	if r.Empty() {
		return s
	}
	r = r.Add(Pt{s.X0, s.Y0})
	return r.Add(Pt{s.X1, s.Y1})
}

// Expand grows r by margin m on every side and clamps it to the grid
// [0,nx-1] x [0,ny-1].
func (r Rect) Expand(m, nx, ny int32) Rect {
	r.X0 -= m
	r.Y0 -= m
	r.X1 += m
	r.Y1 += m
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > nx-1 {
		r.X1 = nx - 1
	}
	if r.Y1 > ny-1 {
		r.Y1 = ny - 1
	}
	return r
}

// W returns the width of r in gcells (number of columns).
func (r Rect) W() int32 {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0 + 1
}

// H returns the height of r in gcells (number of rows).
func (r Rect) H() int32 {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0 + 1
}

// Intersect returns the overlap of r and s; the result is empty when
// they share no gcell.
func (r Rect) Intersect(s Rect) Rect {
	if s.X0 > r.X0 {
		r.X0 = s.X0
	}
	if s.Y0 > r.Y0 {
		r.Y0 = s.Y0
	}
	if s.X1 < r.X1 {
		r.X1 = s.X1
	}
	if s.Y1 < r.Y1 {
		r.Y1 = s.Y1
	}
	return r
}

// Intersects reports whether r and s share at least one gcell.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 <= s.X1 && s.X0 <= r.X1 && r.Y0 <= s.Y1 && s.Y0 <= r.Y1
}

// HalfPerimeter returns the half-perimeter wirelength (HPWL) of r, the
// classic lower bound for the length of any tree connecting points
// spanning r.
func (r Rect) HalfPerimeter() int64 {
	if r.Empty() {
		return 0
	}
	return int64(r.X1-r.X0) + int64(r.Y1-r.Y0)
}

// BBox returns the bounding rectangle of pts.
func BBox(pts []Pt) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Add(p)
	}
	return r
}
