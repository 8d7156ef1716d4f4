package segment

import (
	"container/list"
	"sync"
	"sync/atomic"

	"idlog/internal/value"
)

// Cache is a byte-budgeted LRU over decoded segment blocks, shared by
// every segment of a database directory so the budget caps total decoded
// tuple memory, not per-file memory. It is safe for concurrent use;
// concurrent queries probe frozen disk-backed relations from many
// goroutines at once. Concurrent misses on the same block may decode it
// twice (one copy wins the slot) — wasted work, never wrong results.
type Cache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // MRU at front; values are *centry
	items map[ckey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

// ckey names one decoded block: the owning segment's process-unique id
// plus the block ordinal.
type ckey struct {
	seg   uint64
	block int
}

type centry struct {
	key    ckey
	tuples []value.Tuple
	bytes  int64
}

// NewCache returns a cache that holds at most maxBytes of decoded
// blocks (estimated; see blockBytes). A non-positive budget still
// caches the single most recent block, so scans degrade to streaming
// rather than re-decoding the same block per tuple.
func NewCache(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, ll: list.New(), items: make(map[ckey]*list.Element)}
}

// get returns the decoded block for k, updating recency and the
// hit/miss counters.
func (c *Cache) get(k ckey) ([]value.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*centry).tuples, true
	}
	c.misses.Add(1)
	return nil, false
}

// put inserts a freshly decoded block, evicting least-recently-used
// blocks until the budget holds. A block larger than the entire budget
// is declined outright: admitting it would evict every resident block
// and still pin used > max until an unrelated later eviction — the
// caller already holds the decoded tuples and streams through them
// once. Under a non-positive budget the newest block always stays, so
// scans degrade to streaming rather than re-decoding per tuple.
func (c *Cache) put(k ckey, tuples []value.Tuple, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && bytes > c.max {
		return
	}
	if el, ok := c.items[k]; ok {
		// Lost a concurrent decode race; keep the published copy.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&centry{key: k, tuples: tuples, bytes: bytes})
	c.items[k] = el
	c.used += bytes
	c.shrink()
}

// shrink evicts LRU blocks until the budget holds, always keeping the
// most recent block. Callers must hold c.mu.
func (c *Cache) shrink() {
	for c.used > c.max && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= e.bytes
	}
}

// Resize changes the byte budget in place, evicting LRU blocks if the
// new budget is smaller than current residency. Resizing the shared
// DefaultCache is how the root API honors -cache-mb-style sizing for
// databases opened without an explicit cache.
func (c *Cache) Resize(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = maxBytes
	c.shrink()
}

// drop evicts every block of segment seg; called when a segment closes
// so a closed file's decoded blocks don't squat in the budget.
func (c *Cache) drop(seg uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*centry); e.key.seg == seg {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.used -= e.bytes
		}
		el = next
	}
}

// Stats returns the cumulative hit and miss counts; exported to the
// idlogd /metrics endpoint as idlogd_storage_cache_{hits,misses}_total.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Bytes returns the current estimated decoded bytes resident.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Blocks returns the number of cached blocks.
func (c *Cache) Blocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// blockBytes estimates the resident size of a decoded block: slice
// headers plus 16 bytes per value (the size of value.Value).
func blockBytes(n, arity int) int64 {
	return int64(n) * int64(24+16*arity)
}

// defaultCache backs segments opened without an explicit cache.
var defaultCache = NewCache(64 << 20)

// DefaultCache returns the process-wide shared block cache (64 MiB).
func DefaultCache() *Cache { return defaultCache }

// segIDs hands out process-unique segment identities for cache keys.
var segIDs atomic.Uint64
