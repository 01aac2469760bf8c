package sparse

// Park sets the counter as if last were the latest stamp issued, so a
// test can step a store over the wrap of the 32-bit counter.
func (g *Gen) Park(last uint32) { g.cur = last }

// Gen returns the store's stamp counter.
func (m *FlatI32) Gen() *Gen { return &m.gen }

// Gen returns the counter the pool's slabs draw their stamps from.
func (p *PagePool) Gen() *Gen { return &p.gen }
