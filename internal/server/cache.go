// The result cache: completed mining results keyed by the checkpoint
// package's database/config fingerprint of (db, minsup, maxlen). Every
// job mines with the pipeline, and clean-run equivalence (every
// algorithm yields the identical frequent-itemset set for those inputs)
// keeps the key sound for a checkpoint any engine wrote. Entries hold
// the resultio-canonical text body and the decoded itemsets, both
// charged to a byte budget and evicted LRU.
package server

import (
	"container/list"
	"sync"

	"gpapriori"
)

// cacheEntry is one cached result.
type cacheEntry struct {
	key uint64
	// body is the resultio-canonical rendering of the result set.
	body []byte
	// itemsets is the decoded result, shared read-only by every hit.
	itemsets []gpapriori.Itemset
}

// Per-itemset memory a cache entry pins besides its body: the Itemset
// itself (a slice header plus the support) and 4 bytes per item.
const (
	itemsetBytes = 32
	itemBytes    = 4
)

// bytes is the entry's charge against the budget: the body plus the
// decoded itemsets every hit shares.
func (e *cacheEntry) bytes() int64 {
	n := int64(len(e.body)) + int64(len(e.itemsets))*itemsetBytes
	for _, s := range e.itemsets {
		n += int64(len(s.Items)) * itemBytes
	}
	return n
}

// ResultCache is a byte-budgeted LRU of completed mining results.
type ResultCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List               // front = most recent
	byKey  map[uint64]*list.Element // value: *cacheEntry

	hits, misses, puts, evictions int64
}

// NewResultCache builds a cache bounded by budgetBytes. A zero or
// negative budget disables caching: every Get misses, every Put is
// dropped — the stats still count, so /statsz shows the traffic a
// budget would have served.
func NewResultCache(budgetBytes int64) *ResultCache {
	return &ResultCache{
		budget: budgetBytes,
		lru:    list.New(),
		byKey:  map[uint64]*list.Element{},
	}
}

// Get looks up key, refreshing its recency on hit.
func (c *ResultCache) Get(key uint64) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Contains reports whether key is cached without counting a hit or a
// miss and without touching recency — the cluster router peeks at the
// cache to pick a path; only the submission that follows should score.
func (c *ResultCache) Contains(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Put inserts an entry, evicting least-recently-used entries until the
// budget holds. An entry larger than the whole budget is not cached.
// Re-putting an existing key refreshes recency but keeps the original
// entry (equivalence guarantees the bodies match).
func (c *ResultCache) Put(e *cacheEntry) {
	n := e.bytes()
	if n > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.byKey[e.key]; dup {
		c.lru.MoveToFront(el)
		return
	}
	c.puts++
	c.used += n
	c.byKey[e.key] = c.lru.PushFront(e)
	for c.used > c.budget {
		back := c.lru.Back()
		victim := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.byKey, victim.key)
		c.used -= victim.bytes()
		c.evictions++
	}
}

// Stats snapshots the cache's accounting.
func (c *ResultCache) Stats() gpapriori.ServeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return gpapriori.ServeCacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Puts:        c.puts,
		Evictions:   c.evictions,
		Entries:     c.lru.Len(),
		Bytes:       c.used,
		BudgetBytes: c.budget,
	}
}
