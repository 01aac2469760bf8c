package sparse

// Gen returns the store's stamp counter.
func (m *FlatI32) Gen() *Gen { return &m.gen }

// Gen returns the counter the pool's slabs draw their stamps from.
func (p *PagePool) Gen() *Gen { return &p.gen }
