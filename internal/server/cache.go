package server

import (
	"container/list"
	"sync"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/query"
)

// lruCache is a least-recently-used cache bounded by the estimated bytes
// of its entries, with an optional time-to-live, safe for concurrent
// use. It holds the server's one result cache: query id → search entry.
// Eviction is by recency (a Get refreshes the entry) once the summed
// entry sizes pass the byte capacity, and — when a TTL is configured —
// by age: entries expire ttl after insertion even without LRU pressure,
// the freshness bound a mutable dataset needs. Expiry is lazy: an
// expired entry is dropped when a Get or Put touches it, costing no
// background goroutine.
type lruCache struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64            // sum of the held entries' sizes
	ttl      time.Duration    // 0 = entries never expire
	now      func() time.Time // injectable for tests
	ll       *list.List       // front = most recently used
	items    map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  any
	size int64
	at   time.Time // insertion (not access) time: a hot entry still expires
}

// newLRUCache returns a cache holding entries up to capBytes summed size
// (the most recent entry is always kept, even when it alone is larger —
// a degenerate but functional cache), each for at most ttl (ttl ≤ 0:
// forever).
func newLRUCache(capBytes int64, ttl time.Duration) *lruCache {
	return &lruCache{
		capBytes: capBytes,
		ttl:      ttl,
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// expired reports whether an entry is past its TTL.
func (c *lruCache) expired(e *lruEntry) bool {
	return c.ttl > 0 && c.now().Sub(e.at) > c.ttl
}

// Get returns the value for key and refreshes its recency. An expired
// entry is removed and reported as a miss.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if c.expired(e) {
		c.remove(el)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put inserts or replaces the value for key with its estimated size
// (restarting its TTL), then evicts least recently used entries while
// the cache is over its byte capacity.
func (c *lruCache) Put(key string, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, size: size, at: c.now()})
	c.bytes += size
	for c.bytes > c.capBytes && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
	}
}

// remove unlinks an entry; the caller holds c.mu.
func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Invalidate removes every entry the predicate matches and returns how
// many were dropped. The cache lock is held across the sweep, so the
// predicate must not call back into this cache; O(entries) with a small
// constant — invalidation is rare (epoch swaps) next to Get/Put traffic.
func (c *lruCache) Invalidate(match func(key string, val any) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		if match(e.key, e.val) {
			c.remove(el)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the number of cached entries and their summed sizes,
// including any not yet lazily expired.
func (c *lruCache) Len() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// entryOverhead is the fixed heap cost of one cached search beyond what
// size counts field by field: the list element, the lruEntry, the map
// slot and its query-id key, and the exploration block.
const entryOverhead = 320

// size estimates the heap bytes a cached search keeps live: the search
// key, the rendered response (ids, descriptions, SPARQL, keywords,
// counts) and the executable queries behind it (atoms, variable names,
// filters). Term strings inside atoms are not counted: they share the
// dictionary's storage (the mapped snapshot, or the store's terms).
func (e *searchEntry) size() int64 {
	n := entryOverhead + int(unsafe.Sizeof(*e)) + len(e.key) + len(e.resp.QueryID)
	strs := func(ss []string) {
		n += cap(ss) * int(unsafe.Sizeof(""))
		for _, s := range ss {
			n += len(s)
		}
	}
	strs(e.resp.Keywords)
	strs(e.resp.Unmatched)
	n += cap(e.resp.MatchCounts) * int(unsafe.Sizeof(0))
	n += cap(e.resp.Candidates) * int(unsafe.Sizeof(candidateJSON{}))
	for _, c := range e.resp.Candidates {
		n += len(c.ID) + len(c.Description) + len(c.SPARQL)
	}
	n += cap(e.cands) * int(unsafe.Sizeof(&engine.QueryCandidate{}))
	for _, c := range e.cands {
		n += int(unsafe.Sizeof(*c))
		q := c.Query
		n += int(unsafe.Sizeof(*q))
		n += cap(q.Atoms)*int(unsafe.Sizeof(query.Atom{})) + cap(q.Filters)*int(unsafe.Sizeof(query.Filter{}))
		for _, at := range q.Atoms {
			n += len(at.S.Var) + len(at.O.Var)
		}
		strs(q.Distinguished)
	}
	return int64(n)
}
