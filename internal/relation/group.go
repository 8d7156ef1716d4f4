package relation

import (
	"sort"

	"idlog/internal/value"
)

// Group is one sub-relation of a relation grouped by a set of attributes
// (§2.1): all tuples sharing the same values on the grouping columns.
type Group struct {
	// Key is the projection of the members onto the grouping columns.
	Key value.Tuple
	// Members holds the group's tuples in canonical (sorted) order, so
	// that ID-function oracles see a stable presentation regardless of
	// insertion order.
	Members []value.Tuple
}

// Groups partitions r into its sub-relations grouped by the 0-based
// columns. Groups are returned in canonical order of their keys. An empty
// column set yields a single group containing the whole relation (the
// "most primitive" ID-predicate p[] of the paper's footnote 5).
//
// The sub-relations are the keys of the secondary index on cols: a
// published index is reused, otherwise a transient build groups the
// relation without publishing anything that later inserts would have
// to maintain.
func (r *Relation) Groups(cols []int) []Group {
	ix := r.published(cols)
	if ix == nil {
		ix = r.buildIndex(cols)
	}
	return ix.groups(r)
}

// groups lists the index's keys with their member tuples, both in
// canonical order. Keys and members are carved out of two shared
// allocations; members are placed by one sequential Scan through the
// position → member-slot map, so disk-backed relations decode each
// block once.
func (ix *secondary) groups(r *Relation) []Group {
	w := len(ix.cols)
	out := make([]Group, 0, ix.live)
	keys := make([]value.Value, 0, ix.live*w)
	members := make([]value.Tuple, r.Len())
	slot := make([]int32, r.Len())
	next := 0
	for _, s := range ix.slots {
		if s.key <= 0 {
			continue
		}
		k := int(s.key-1) * w
		keys = append(keys, ix.keys[k:k+w]...)
		for j, p := range ix.pool[s.start : s.start+s.n] {
			slot[p] = int32(next + j)
		}
		end := next + int(s.n)
		out = append(out, Group{
			Key:     keys[len(keys)-w : len(keys) : len(keys)],
			Members: members[next:end:end],
		})
		next = end
	}
	r.Scan(0, -1, func(pos int, t value.Tuple) bool {
		members[slot[pos]] = t
		return true
	})
	for i := range out {
		ms := out[i].Members
		sort.Slice(ms, func(a, b int) bool { return ms[a].Compare(ms[b]) < 0 })
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.Compare(out[b].Key) < 0 })
	return out
}
