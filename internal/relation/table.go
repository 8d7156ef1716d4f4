package relation

import (
	"sync/atomic"

	"idlog/internal/value"
)

// The tuple store resolves 64-bit hash collisions with full Tuple.Equal
// checks; these counters record how often an equal hash turned out to be
// an unequal tuple (primary table) or an unequal projection (secondary
// index keys). They are process-global, exported for the idlogd
// /metrics endpoint, and expected to stay at zero essentially forever.
var (
	primaryHashCollisions   atomic.Uint64
	secondaryHashCollisions atomic.Uint64
)

// CollisionCounts returns the process-wide number of observed 64-bit
// hash collisions in primary tables and secondary indexes.
func CollisionCounts() (primary, secondary uint64) {
	return primaryHashCollisions.Load(), secondaryHashCollisions.Load()
}

// table is the primary index of a Relation: an open-addressing hash
// table mapping tuple hashes to positions in the tuple slice. Entries
// store the full 64-bit hash so growth never rehashes tuples and probe
// chains can skip mismatched slots without touching tuple memory.
//
// Slot encoding: pos == 0 is an empty slot, pos == -1 a tombstone left
// by Remove, pos >= 1 holds tuple position pos-1. Linear probing; the
// table grows (or compacts tombstones in place) at 3/4 load.
type table struct {
	entries []tableEntry
	mask    uint64
	live    int // occupied slots holding tuples
	used    int // live + tombstones (governs load factor)
}

type tableEntry struct {
	hash uint64
	pos  int32
}

const tableMinSize = 8

// lookup returns the position of the tuple equal to t (hash h) in r,
// or -1 when absent. Positions resolve through r.At, so one table
// serves both in-memory and source-backed tuple storage; the stored
// 64-bit hash filters probe chains, so a tuple is only fetched (and,
// for source-backed positions, decoded) on an exact hash match.
func (tb *table) lookup(r *Relation, t value.Tuple, h uint64) int {
	if len(tb.entries) == 0 {
		return -1
	}
	i := h & tb.mask
	for {
		e := tb.entries[i]
		if e.pos == 0 {
			return -1
		}
		if e.pos > 0 && e.hash == h {
			p := int(e.pos) - 1
			if r.At(p).Equal(t) {
				return p
			}
			primaryHashCollisions.Add(1)
		}
		i = (i + 1) & tb.mask
	}
}

// insert records hash h at tuple position pos. The caller must have
// established absence via lookup (tombstone reuse relies on it).
func (tb *table) insert(h uint64, pos int) {
	if (tb.used+1)*4 > len(tb.entries)*3 {
		tb.rehash()
	}
	i := h & tb.mask
	for {
		e := &tb.entries[i]
		if e.pos == 0 {
			e.hash, e.pos = h, int32(pos)+1
			tb.live++
			tb.used++
			return
		}
		if e.pos == -1 {
			e.hash, e.pos = h, int32(pos)+1
			tb.live++ // reusing a tombstone leaves used unchanged
			return
		}
		i = (i + 1) & tb.mask
	}
}

// remove tombstones the entry holding tuple position pos under hash h.
func (tb *table) remove(h uint64, pos int) {
	i := h & tb.mask
	for {
		e := &tb.entries[i]
		if e.pos == 0 {
			return // absent; nothing to do
		}
		if e.hash == h && e.pos == int32(pos)+1 {
			e.pos = -1
			tb.live--
			return
		}
		i = (i + 1) & tb.mask
	}
}

// updatePos re-points the entry for (h, oldPos) at newPos; used when
// swap-remove moves the last tuple into a vacated position.
func (tb *table) updatePos(h uint64, oldPos, newPos int) {
	i := h & tb.mask
	for {
		e := &tb.entries[i]
		if e.pos == 0 {
			return
		}
		if e.hash == h && e.pos == int32(oldPos)+1 {
			e.pos = int32(newPos) + 1
			return
		}
		i = (i + 1) & tb.mask
	}
}

// presize allocates the entry array for about n tuples so bulk
// insertion avoids growth rehashes. Only valid on an empty table (a
// construction-time hint); a smaller-than-current size is ignored.
func (tb *table) presize(n int) {
	if tb.used != 0 {
		return
	}
	size := tableMinSize
	for size*3 < n*4 {
		size *= 2
	}
	if size <= len(tb.entries) {
		return
	}
	tb.entries = make([]tableEntry, size)
	tb.mask = uint64(size - 1)
}

// rehash grows the table (doubling while genuinely loaded) or compacts
// it at the current size when the load is mostly tombstones.
func (tb *table) rehash() {
	n := len(tb.entries)
	switch {
	case n == 0:
		n = tableMinSize
	case (tb.live+1)*2 > n:
		n *= 2
	}
	old := tb.entries
	tb.entries = make([]tableEntry, n)
	tb.mask = uint64(n - 1)
	tb.used = tb.live
	for _, e := range old {
		if e.pos <= 0 {
			continue
		}
		i := e.hash & tb.mask
		for tb.entries[i].pos != 0 {
			i = (i + 1) & tb.mask
		}
		tb.entries[i] = e
	}
}

// clone returns an independent copy of the table.
func (tb *table) clone() table {
	c := *tb
	c.entries = append([]tableEntry(nil), tb.entries...)
	return c
}
