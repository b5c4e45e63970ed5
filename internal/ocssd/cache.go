package ocssd

import (
	"sync"

	"repro/internal/vclock"
)

// cacheTracker models the controller's write-back cache occupancy in
// virtual time. Each admitted write occupies cache space until its data
// has been programmed to NAND (its "free at" instant, known when the
// flush is scheduled). Admission of a new write may have to wait until
// enough earlier entries drain.
type cacheTracker struct {
	mu       sync.Mutex
	capacity int64
	occupied int64
	entries  entryHeap // pending entries ordered by freeAt
}

type cacheEntry struct {
	freeAt vclock.Time
	bytes  int64
}

// entryHeap is a min-heap on freeAt. push and pop are container/heap's
// sift-up and sift-down, typed so no entry is boxed in an interface
// (one allocation per push and per pop). Entries with equal freeAt pop
// in container/heap's order: which one drains first decides how many
// bytes an admission frees, and so the virtual time it waits.
type entryHeap []cacheEntry

func (h *entryHeap) push(e cacheEntry) {
	s := append(*h, e)
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].freeAt >= s[i].freeAt {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *entryHeap) pop() cacheEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].freeAt < s[j].freeAt {
			j = j2
		}
		if s[j].freeAt >= s[i].freeAt {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

func newCacheTracker(capacity int64) *cacheTracker {
	return &cacheTracker{capacity: capacity}
}

// enabled reports whether write-back caching is on.
func (c *cacheTracker) enabled() bool { return c != nil && c.capacity > 0 }

// admit returns the earliest instant ≥ now at which bytes of cache space
// are available, draining entries whose flushes complete by then. The
// space is reserved; release it by scheduling the flush with occupy.
func (c *cacheTracker) admit(now vclock.Time, bytes int64) vclock.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := now
	// Drain everything already flushed by t.
	for len(c.entries) > 0 && c.entries[0].freeAt <= t {
		e := c.entries.pop()
		c.occupied -= e.bytes
	}
	// Wait for further drains until the new entry fits. An over-sized
	// write proceeds once the cache is fully drained (occupancy may then
	// transiently exceed capacity, as with any single huge I/O).
	for c.occupied+bytes > c.capacity && len(c.entries) > 0 {
		e := c.entries.pop()
		c.occupied -= e.bytes
		if e.freeAt > t {
			t = e.freeAt
		}
	}
	c.occupied += bytes
	return t
}

// occupy records that the bytes admitted earlier will be freed at freeAt
// (the virtual completion of their NAND program).
func (c *cacheTracker) occupy(freeAt vclock.Time, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// admit already counted these bytes as occupied; the entry just
	// records when future admissions may drain them. Every admitted byte
	// must be covered by exactly one occupy call so holds never leak.
	c.entries.push(cacheEntry{freeAt: freeAt, bytes: bytes})
}

// occupancy reports bytes held at the given instant (for tests).
func (c *cacheTracker) occupancy(now vclock.Time) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.entries) > 0 && c.entries[0].freeAt <= now {
		e := c.entries.pop()
		c.occupied -= e.bytes
	}
	return c.occupied
}
