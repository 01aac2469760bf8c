package service

import (
	"container/list"
	"sync"
)

// resultCache is the content-addressed result cache: marshaled response
// bodies keyed by a resolved request's content address (a solve's
// canonical instance and method, a route's normalized request),
// evicted least-recently-used under a total byte budget. Because every
// solve is deterministic, a cached body is bit-identical to what a
// fresh solve would produce, so serving from cache never changes
// responses — only latency.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns a cache with the given byte budget; a budget
// ≤ 0 disables caching (every Get misses, Put is a no-op).
func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
	}
}

// Get returns the cached body for key, promoting it to most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *resultCache) Get(key string) ([]byte, bool) {
	return c.get(key, true)
}

// Recheck is Get for the claim-time lookup, right after a request
// claims its content address (an earlier claimant may have cached its
// result between the handler's Get and the claim): a find still counts
// as a hit, but an absence is not a second miss (the handler's Get
// already counted this request).
func (c *resultCache) Recheck(key string) ([]byte, bool) {
	return c.get(key, false)
}

func (c *resultCache) get(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting from the LRU tail until the byte
// budget holds. Bodies larger than the whole budget are not cached.
func (c *resultCache) Put(key string, body []byte) {
	if c.maxBytes <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Deterministic solves make re-puts byte-identical; just promote.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, ent.key)
		c.bytes -= int64(len(ent.body))
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Bytes                   int64
	Entries                 int
}

func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: len(c.entries),
	}
}
