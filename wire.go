package costdist

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"costdist/internal/grid"
)

// The tree-carrying wire forms — checkpoints, trees and route results —
// are written by a wireWriter, and checkpoints are read back by a
// checkpointReader, neither through reflection. Their bytes are the
// compact bytes json.Marshal gives the reference structs kept in
// io_test.go, which the differential tests and the fuzz targets hold
// both to, and the reader reads no layout but the writer's.
// encoding/json still writes the route result's metric row.

// wireWriter appends a compact document: no white space between
// tokens, the layout json.Marshal gives. The first value encoding/json
// would refuse (a NaN or an infinite float) is kept in err, and the
// document is then never returned.
type wireWriter struct {
	b []byte
	// empty reports that the innermost open container has no element yet.
	empty bool
	err   error
}

// open starts an object ('{') or an array ('[').
func (w *wireWriter) open(c byte) {
	w.b = append(w.b, c)
	w.empty = true
}

// close ends the innermost container with c.
func (w *wireWriter) close(c byte) {
	w.b = append(w.b, c)
	w.empty = false
}

// elem starts the next element of the innermost container.
func (w *wireWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
}

// key starts the object member name, which needs no escaping.
func (w *wireWriter) key(name string) *wireWriter {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
	return w
}

func (w *wireWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *wireWriter) null() { w.b = append(w.b, "null"...) }

func (w *wireWriter) integer(v int64) {
	if 0 <= v && v < 10 {
		w.b = append(w.b, byte('0'+v))
		return
	}
	w.b = strconv.AppendInt(w.b, v, 10)
}

// ints appends a short array of integers — a point or a vertex, the
// bulk of every document.
func (w *wireWriter) ints(v ...int32) {
	w.b = append(w.b, '[')
	for i, x := range v {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.integer(int64(x))
	}
	w.b = append(w.b, ']')
	w.empty = false
}

// float appends v as encoding/json writes a float of the given bit size:
// the shortest 'f' form, unless the magnitude is below 1e-6 or at least
// 1e21, where it is the 'e' form with e-09 written e-9.
func (w *wireWriter) float(v float64, bits int) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		w.fail(fmt.Errorf("costdist: unsupported value %v", v))
		return
	}
	// Most prices are whole numbers (capacities, multipliers at 1). Below
	// 2^24 (float32) or 2^53 (float64) every integer is representable, so
	// an integral value's shortest decimal is the integer itself.
	lim := int64(1) << 53
	if bits == 32 {
		lim = 1 << 24
	}
	if i := int64(v); float64(i) == v && -lim < i && i < lim && (i != 0 || !math.Signbit(v)) {
		w.integer(i)
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, bits)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// str appends s quoted if it is a plain name; any other string is
// refused.
func (w *wireWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			w.fail(fmt.Errorf("costdist: %q is not a plain name", s))
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// plainByte reports whether c may stand in a plain name: ASCII that
// encoding/json copies into a string unescaped — printable, and neither
// a quote, a backslash nor one of the characters it escapes for HTML.
func plainByte(c byte) bool {
	return 0x20 <= c && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// writeFloats appends v as an array of floats of the given bit size,
// nil as null.
func writeFloats[F float32 | float64](w *wireWriter, v []F, bits int) {
	if v == nil {
		w.null()
		return
	}
	w.open('[')
	for _, x := range v {
		w.elem()
		w.float(float64(x), bits)
	}
	w.close(']')
}

// budgets appends a delay budget vector: the shortest 'g' form, +Inf (a
// sink with no timing endpoint downstream) as null, nil as []. NaN and
// −Inf have no wire form.
func (w *wireWriter) budgets(b []float64) {
	w.open('[')
	for i, v := range b {
		w.elem()
		switch {
		case math.IsInf(v, 1):
			w.null()
		case math.IsInf(v, -1) || math.IsNaN(v):
			w.fail(fmt.Errorf("costdist: budget %d is %v, not serializable", i, v))
		default:
			w.b = strconv.AppendFloat(w.b, v, 'g', -1, 64)
		}
	}
	w.close(']')
}

// metrics appends the metric row through encoding/json.
func (w *wireWriter) metrics(m *RouteMetrics) {
	raw, err := json.Marshal(m)
	if err != nil {
		w.fail(err)
		return
	}
	w.b = append(w.b, raw...)
}

// steps appends the members of RouteTreeJSON for a tree's steps: each
// step's endpoints as (x, y, l), then the wire types (-1 for vias). A
// tree without steps has null edges and, omitted, no wire types.
func (w *wireWriter) steps(g *grid.Graph, steps []Step) {
	w.key("edges")
	if len(steps) == 0 {
		w.null()
		return
	}
	w.open('[')
	for _, st := range steps {
		w.elem()
		w.open('[')
		w.elem()
		w.ints(g.XYL(st.From))
		w.elem()
		w.ints(g.XYL(st.Arc.To))
		w.close(']')
	}
	w.close(']')
	w.key("wire_types").open('[')
	for _, st := range steps {
		w.elem()
		w.integer(int64(st.Arc.WT))
	}
	w.close(']')
}

func (w *wireWriter) result() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// checkpointReader reads what MarshalCheckpoint writes, in one pass, and
// nothing else: every member the writer always writes, in its order;
// tree only where the writer may leave it out; null only for a nil
// float vector, a +Inf budget and the edges of a tree without steps;
// strings (method and layer_dirs) only as plain names. Where a number
// goes any JSON number stands. Anything else, white space included, is
// refused with its byte offset. The per-net vectors are read into
// scratch and copied out at their final length.
type checkpointReader struct {
	data []byte
	pos  int

	// Scratch; floats and wts start with room for short vectors.
	floats []float64
	pts    [][2]int32
	edges  [][2][3]int32
	wts    []int8
}

func newCheckpointReader(data []byte) *checkpointReader {
	return &checkpointReader{data: data, floats: make([]float64, 0, 64), wts: make([]int8, 0, 64)}
}

func (r *checkpointReader) errorf(at int, format string, args ...any) error {
	return fmt.Errorf("costdist: parsing checkpoint: byte %d: %s", at, fmt.Sprintf(format, args...))
}

// next consumes c if the input continues with it.
func (r *checkpointReader) next(c byte) bool {
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

// lit consumes s if the input continues with it.
func (r *checkpointReader) lit(s string) bool {
	if d := r.data[r.pos:]; len(d) >= len(s) && string(d[:len(s)]) == s {
		r.pos += len(s)
		return true
	}
	return false
}

func (r *checkpointReader) expect(c byte) error {
	if r.next(c) {
		return nil
	}
	return r.errorf(r.pos, "want %q", c)
}

// key consumes the opening of a member, from its comma or brace to its
// colon, or refuses the input.
func (r *checkpointReader) key(s string) error {
	if r.lit(s) {
		return nil
	}
	return r.errorf(r.pos, "want %s", s)
}

// array reads an array, calling elem for each element.
func (r *checkpointReader) array(elem func() error) error {
	if err := r.expect('['); err != nil {
		return err
	}
	if r.next(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.next(']') {
			return nil
		}
		if err := r.expect(','); err != nil {
			return err
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number and returns its text.
func (r *checkpointReader) number() ([]byte, error) {
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	default:
		return nil, r.errorf(r.pos, "want a number")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			return nil, r.errorf(i, "want a digit")
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return nil, r.errorf(i, "want a digit")
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	tok := d[r.pos:i]
	r.pos = i
	return tok, nil
}

// plainInt reads an integer literal of at most 18 digits, the most
// common number of a checkpoint, and reports false, reading nothing, for
// anything else.
func (r *checkpointReader) plainInt() (int64, bool) {
	d, i := r.data, r.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	j, v := i, int64(0)
	for j < len(d) && j-i < 18 && isDigit(d[j]) {
		v = v*10 + int64(d[j]-'0')
		j++
	}
	if j == i || d[i] == '0' && j > i+1 || j < len(d) && (isDigit(d[j]) || d[j] == '.' || d[j] == 'e' || d[j] == 'E') {
		return 0, false
	}
	r.pos = j
	if neg {
		v = -v
	}
	return v, true
}

// integer reads a number into an integer of the given bit size as
// encoding/json does: an integer literal in range.
func (r *checkpointReader) integer(bits int) (int64, error) {
	start := r.pos
	if v, ok := r.plainInt(); ok {
		if bits == 64 || -1<<(bits-1) <= v && v < 1<<(bits-1) {
			return v, nil
		}
		r.pos = start
	}
	tok, err := r.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, r.errorf(start, "%s is not an int%d", tok, bits)
	}
	return n, nil
}

// float reads a number as encoding/json reads a float of the given bit
// size.
func (r *checkpointReader) float(bits int) (float64, error) {
	start := r.pos
	// An integer literal up to 2^24 (float32) or 2^53 (float64) is its
	// own float, which ParseFloat would return too.
	if v, ok := r.plainInt(); ok {
		lim := int64(1) << 53
		if bits == 32 {
			lim = 1 << 24
		}
		switch {
		case v == 0 && r.data[start] == '-':
			return math.Copysign(0, -1), nil
		case -lim <= v && v <= lim:
			return float64(v), nil
		}
		r.pos = start
	}
	tok, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), bits)
	if err != nil {
		return 0, r.errorf(start, "%s is not a float%d", tok, bits)
	}
	return v, nil
}

// floatsMember reads the float vector member key, of floats of the
// given bit size, into scratch — null as nil, or, for a budget vector,
// which is never null, a null element as +Inf — and copies it out at
// its length.
func floatsMember[F float32 | float64](r *checkpointReader, key string, bits int, budgets bool) ([]F, error) {
	if err := r.key(key); err != nil {
		return nil, err
	}
	if !budgets && r.lit("null") {
		return nil, nil
	}
	r.floats = r.floats[:0]
	if err := r.array(func() error {
		v, err := math.Inf(1), error(nil)
		if !budgets || !r.lit("null") {
			v, err = r.float(bits)
		}
		r.floats = append(r.floats, v)
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]F, len(r.floats))
	for i, x := range r.floats {
		out[i] = F(x)
	}
	return out, nil
}

// intMember reads the integer member key of the given bit size.
func (r *checkpointReader) intMember(key string, bits int) (int64, error) {
	if err := r.key(key); err != nil {
		return 0, err
	}
	return r.integer(bits)
}

// int32s reads an array of exactly len(dst) integers into dst.
func (r *checkpointReader) int32s(dst []int32) error {
	if err := r.expect('['); err != nil {
		return err
	}
	for i := range dst {
		if i > 0 {
			if err := r.expect(','); err != nil {
				return err
			}
		}
		v, err := r.integer(32)
		if err != nil {
			return err
		}
		dst[i] = int32(v)
	}
	return r.expect(']')
}

// str reads a plain name.
func (r *checkpointReader) str() (string, error) {
	if err := r.expect('"'); err != nil {
		return "", err
	}
	start := r.pos
	for r.pos < len(r.data) && plainByte(r.data[r.pos]) {
		r.pos++
	}
	body := r.data[start:r.pos]
	if !r.next('"') {
		return "", r.errorf(r.pos, "want a plain name")
	}
	return string(body), nil
}

// checkpoint reads a whole document. It makes the decoder's checks in
// their order: the version, then checkpointGraph before any grid is
// built, then per net the vector lengths before the tree.
func (r *checkpointReader) checkpoint() (*RouterState, error) {
	st := &RouterState{}
	version, err := r.intMember(`{"version":`, 64)
	if err != nil {
		return nil, err
	}
	if version != CheckpointVersion {
		return nil, fmt.Errorf("costdist: checkpoint version %d unsupported (want %d)", version, CheckpointVersion)
	}
	if err := r.key(`,"method":`); err != nil {
		return nil, err
	}
	if st.Method, err = r.str(); err != nil {
		return nil, err
	}
	nx, err := r.intMember(`,"nx":`, 32)
	if err != nil {
		return nil, err
	}
	ny, err := r.intMember(`,"ny":`, 32)
	if err != nil {
		return nil, err
	}
	layers, err := r.intMember(`,"layers":`, 64)
	if err != nil {
		return nil, err
	}
	st.NX, st.NY, st.Layers = int32(nx), int32(ny), int(layers)
	if err := r.key(`,"layer_dirs":`); err != nil {
		return nil, err
	}
	if st.LayerDirs, err = r.str(); err != nil {
		return nil, err
	}
	if st.Cap, err = floatsMember[float32](r, `,"cap":`, 32, false); err != nil {
		return nil, err
	}
	if st.Mult, err = floatsMember[float32](r, `,"mult":`, 32, false); err != nil {
		return nil, err
	}
	g, err := checkpointGraph(st.NX, st.NY, st.Layers, st.LayerDirs, len(st.Cap), len(st.Mult))
	if err != nil {
		return nil, err
	}
	st.Nets = []RouterNetState{}
	if err := r.key(`,"nets":`); err != nil {
		return nil, err
	}
	if err := r.array(func() error {
		ns, err := r.net(len(st.Nets), g)
		st.Nets = append(st.Nets, ns)
		return err
	}); err != nil {
		return nil, err
	}
	return st, r.expect('}')
}

// net reads net ni's state, then checks its per-sink vector lengths and
// decodes its tree against g.
func (r *checkpointReader) net(ni int, g *grid.Graph) (RouterNetState, error) {
	var ns RouterNetState
	if err := r.key(`{"driver":`); err != nil {
		return ns, err
	}
	var driver [2]int32
	if err := r.int32s(driver[:]); err != nil {
		return ns, err
	}
	ns.Sig.Driver = Pt{X: driver[0], Y: driver[1]}
	if err := r.key(`,"sinks":`); err != nil {
		return ns, err
	}
	r.pts = r.pts[:0]
	if err := r.array(func() error {
		var p [2]int32
		err := r.int32s(p[:])
		r.pts = append(r.pts, p)
		return err
	}); err != nil {
		return ns, err
	}
	ns.Sig.Sinks = make([]Pt, len(r.pts))
	for k, p := range r.pts {
		ns.Sig.Sinks[k] = Pt{X: p[0], Y: p[1]}
	}
	var err error
	if ns.Weights, err = floatsMember[float64](r, `,"weights":`, 64, false); err != nil {
		return ns, err
	}
	if ns.Budgets, err = floatsMember[float64](r, `,"budgets":`, 64, true); err != nil {
		return ns, err
	}
	if ns.Delays, err = floatsMember[float64](r, `,"delays":`, 64, false); err != nil {
		return ns, err
	}
	tree := r.lit(`,"tree":`)
	var edges [][2][3]int32
	var wts []int8
	if tree {
		if edges, wts, err = r.tree(); err != nil {
			return ns, err
		}
	}
	if err := r.expect('}'); err != nil {
		return ns, err
	}
	// Per-sink vectors must match the sink count — the restored
	// scheduler indexes them by pin position, so a truncated vector that
	// slipped through here would panic deep inside a wave.
	if k := len(ns.Sig.Sinks); len(ns.Weights) != k || len(ns.Budgets) != k || len(ns.Delays) != k {
		return ns, fmt.Errorf("costdist: checkpoint net %d has %d sinks but %d/%d/%d weights/budgets/delays",
			ni, k, len(ns.Weights), len(ns.Budgets), len(ns.Delays))
	}
	if tree {
		tr, err := decodeTreeSteps(g, edges, wts)
		if err != nil {
			return ns, fmt.Errorf("checkpoint net %d: %w", ni, err)
		}
		ns.Tree = tr
	}
	return ns, nil
}

// tree reads a RouteTreeJSON object into scratch: null edges, or edges
// followed by their wire types.
func (r *checkpointReader) tree() (edges [][2][3]int32, wts []int8, err error) {
	if err := r.key(`{"edges":`); err != nil {
		return nil, nil, err
	}
	if r.lit("null") {
		return nil, nil, r.expect('}')
	}
	r.edges = r.edges[:0]
	if err := r.array(func() error {
		var e [2][3]int32
		err := r.edge(&e)
		r.edges = append(r.edges, e)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := r.key(`,"wire_types":`); err != nil {
		return nil, nil, err
	}
	r.wts = r.wts[:0]
	if err := r.array(func() error {
		v, err := r.integer(8)
		r.wts = append(r.wts, int8(v))
		return err
	}); err != nil {
		return nil, nil, err
	}
	return r.edges, r.wts, r.expect('}')
}

// edge reads one [[x,y,l],[x,y,l]] pair into e.
func (r *checkpointReader) edge(e *[2][3]int32) error {
	if err := r.expect('['); err != nil {
		return err
	}
	if err := r.int32s(e[0][:]); err != nil {
		return err
	}
	if err := r.expect(','); err != nil {
		return err
	}
	if err := r.int32s(e[1][:]); err != nil {
		return err
	}
	return r.expect(']')
}
