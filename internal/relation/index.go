package relation

import (
	"sync/atomic"

	"idlog/internal/value"
)

// indexedTuples counts tuples entered into secondary indexes during
// one-shot index builds, process-wide. Partition-pruned evaluation
// shows up here: a partition whose delta part stays empty never probes
// and therefore never pays its index build, so the counter measures
// the index-volume reduction the E19 benchmark reports on single-core
// hardware (where wall-clock parallel speedup is unobservable).
var indexedTuples atomic.Uint64

// IndexedTuplesTotal reports how many tuples have been entered into
// secondary indexes by index builds in this process.
func IndexedTuplesTotal() uint64 { return indexedTuples.Load() }

// secondary is a hash index over a subset of columns: it maps every
// distinct projection onto cols (a key) to the positions of the tuples
// carrying it. It is pointer-free — three flat arrays, whatever the
// number of keys — so the garbage collector never scans it and a build
// costs a handful of allocations:
//
//   - slots is an open-addressing table (linear probing) keyed by the
//     64-bit projection hash. A slot holds the hash, the key number and
//     the key's position list as a run [start, start+n) of pool with
//     room for cap entries.
//   - keys is the key arena: key number k occupies keys[k*w : k*w+w],
//     w = len(cols). Distinct keys sharing a hash are told apart by
//     comparing against it, so probes never confuse them.
//   - pool stores every position list as an int32 run.
//
// A fresh build (buildIndex) sizes all three exactly. Maintenance
// appends: a run grows in place while n < cap, extends when it ends the
// pool, and otherwise moves to the pool's tail with double the room. A
// key whose list empties is tombstoned. Dead arena keys and abandoned
// pool cells accumulate until they exceed the live size; compact then
// rebuilds the three arrays afresh.
//
// The probe contract: probe returns a cap-limited snapshot of a run.
// Later inserts write only past its length, and moves and compactions
// copy into the tail or into new arrays, leaving old cells untouched,
// so a snapshot stays valid while the relation grows (the join
// executor iterates probe results while inserting into the probed
// relation). Removals patch runs in place, like the relation's own
// swap-remove.
type secondary struct {
	cols  []int
	slots []islot
	mask  uint64
	keys  []value.Value
	pool  []int32
	nkeys int // key numbers handed out (len(keys)/w when w > 0)
	live  int // slots holding a key with a non-empty list
	used  int // live plus tombstoned slots; governs the load factor
	// deadKeys counts arena keys tombstoned and deadPool the pool cells
	// outside every live run, both since the last compaction.
	deadKeys int
	deadPool int
}

// islot is one slot of a secondary index. key is the key number plus
// one; 0 marks an empty slot and -1 a tombstone.
type islot struct {
	hash          uint64
	key           int32
	start, n, cap int32
}

const slotMin = 8

// slotsFor returns the slot-array size for n keys at ≤ 3/4 load.
func slotsFor(n int) int {
	size := slotMin
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// keyEqual reports whether key number k equals the projection of t
// onto cols; a nil cols means t is the key itself (a probe key).
func (ix *secondary) keyEqual(k int32, t value.Tuple, cols []int) bool {
	w := len(ix.cols)
	key := ix.keys[int(k)*w : int(k)*w+w]
	if cols == nil {
		for i, v := range key {
			if !t[i].Equal(v) {
				return false
			}
		}
		return true
	}
	for i, c := range cols {
		if !t[c].Equal(key[i]) {
			return false
		}
	}
	return true
}

// find returns the index of the live slot whose key equals t's
// projection onto cols (nil cols: t is the key) with hash h, or -1.
func (ix *secondary) find(h uint64, t value.Tuple, cols []int) int {
	if len(ix.slots) == 0 {
		return -1
	}
	for i := h & ix.mask; ; i = (i + 1) & ix.mask {
		s := &ix.slots[i]
		if s.key == 0 {
			return -1
		}
		if s.key > 0 && s.hash == h {
			if ix.keyEqual(s.key-1, t, cols) {
				return int(i)
			}
			secondaryHashCollisions.Add(1)
		}
	}
}

// claim records t's projection, known to be absent, as a new key with
// an empty run at the pool's tail and returns its slot index.
func (ix *secondary) claim(h uint64, t value.Tuple) int {
	if (ix.used+1)*4 > len(ix.slots)*3 {
		// Double when live keys alone fill more than 5/8 of the table;
		// otherwise the load is tombstones, which a same-size rehash
		// drops (at least n/8 of them, so rehashes stay amortized).
		n := len(ix.slots)
		if (ix.live+1)*8 > n*5 {
			n *= 2
		}
		ix.reslot(n)
	}
	i := h & ix.mask
	for ix.slots[i].key > 0 {
		i = (i + 1) & ix.mask
	}
	if ix.slots[i].key == 0 {
		ix.used++
	}
	ix.slots[i] = islot{hash: h, key: int32(ix.nkeys) + 1, start: int32(len(ix.pool))}
	ix.nkeys++
	ix.live++
	for _, c := range ix.cols {
		ix.keys = append(ix.keys, t[c])
	}
	return int(i)
}

// reslot rehashes the live slots into a fresh array of n slots,
// dropping tombstones. Runs and key numbers are unchanged.
func (ix *secondary) reslot(n int) {
	old := ix.slots
	ix.slots = make([]islot, n)
	ix.mask = uint64(n - 1)
	ix.used = ix.live
	for _, s := range old {
		if s.key > 0 {
			ix.place(s)
		}
	}
}

// place puts s into the first empty slot of its probe sequence.
func (ix *secondary) place(s islot) {
	i := s.hash & ix.mask
	for ix.slots[i].key != 0 {
		i = (i + 1) & ix.mask
	}
	ix.slots[i] = s
}

// add enters tuple t at position pos.
func (ix *secondary) add(t value.Tuple, pos int) {
	h := t.ProjectHash(ix.cols)
	i := ix.find(h, t, ix.cols)
	if i < 0 {
		i = ix.claim(h, t)
	}
	s := &ix.slots[i]
	if s.n == s.cap {
		grow := max(s.cap, 1) // doubles the room; a new key's run gets 1
		if int(s.start+s.cap) != len(ix.pool) {
			// Move the run to the tail. The old cells stay as they are
			// (snapshots may read them) and go dead.
			old := s.start
			s.start = int32(len(ix.pool))
			ix.pool = append(ix.pool, ix.pool[old:old+s.n]...)
			ix.deadPool += int(s.cap)
		}
		ix.pool = append(ix.pool, make([]int32, grow)...)
		s.cap += grow
	}
	ix.pool[s.start+s.n] = int32(pos)
	s.n++
	ix.maybeCompact()
}

// remove deletes position pos (holding tuple t) from the index,
// tombstoning the key if its list empties.
func (ix *secondary) remove(t value.Tuple, pos int) {
	i := ix.find(t.ProjectHash(ix.cols), t, ix.cols)
	if i < 0 {
		return
	}
	s := &ix.slots[i]
	run := ix.pool[s.start : s.start+s.n]
	for j, p := range run {
		if int(p) == pos {
			copy(run[j:], run[j+1:])
			s.n--
			break
		}
	}
	if s.n > 0 {
		return
	}
	s.key = -1
	ix.live--
	ix.deadKeys++
	ix.deadPool += int(s.cap)
	ix.maybeCompact()
}

// update re-points tuple t's entry from oldPos to newPos after a
// swap-remove moved it.
func (ix *secondary) update(t value.Tuple, oldPos, newPos int) {
	i := ix.find(t.ProjectHash(ix.cols), t, ix.cols)
	if i < 0 {
		return
	}
	s := &ix.slots[i]
	run := ix.pool[s.start : s.start+s.n]
	for j, p := range run {
		if int(p) == oldPos {
			run[j] = int32(newPos)
			return
		}
	}
}

// maybeCompact compacts once dead keys or dead pool cells outnumber the
// live ones.
func (ix *secondary) maybeCompact() {
	if ix.deadKeys > ix.live || ix.deadPool > len(ix.pool)-ix.deadPool {
		ix.compact()
	}
}

// compact rebuilds the index into fresh, exactly sized arrays holding
// only the live keys and runs. The old arrays are left untouched.
func (ix *secondary) compact() {
	w := len(ix.cols)
	npos := 0
	for _, s := range ix.slots {
		if s.key > 0 {
			npos += int(s.n)
		}
	}
	old := *ix
	ix.slots = make([]islot, slotsFor(ix.live))
	ix.mask = uint64(len(ix.slots) - 1)
	ix.keys = make([]value.Value, 0, ix.live*w)
	ix.pool = make([]int32, 0, npos)
	ix.nkeys, ix.used, ix.deadKeys, ix.deadPool = 0, ix.live, 0, 0
	for _, s := range old.slots {
		if s.key <= 0 {
			continue
		}
		k := int(s.key-1) * w
		ix.keys = append(ix.keys, old.keys[k:k+w]...)
		start := len(ix.pool)
		ix.pool = append(ix.pool, old.pool[s.start:s.start+s.n]...)
		ix.nkeys++
		ix.place(islot{hash: s.hash, key: int32(ix.nkeys), start: int32(start), n: s.n, cap: s.n})
	}
}

// probe returns the positions of the tuples whose projection equals
// key, as a cap-limited snapshot (see the probe contract above).
func (ix *secondary) probe(key value.Tuple) []int32 {
	i := ix.find(key.Hash(), key, nil)
	if i < 0 {
		return nil
	}
	s := &ix.slots[i]
	return ix.pool[s.start : s.start+s.n : s.start+s.n]
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// published returns the published index on cols, or nil.
func (r *Relation) published(cols []int) *secondary {
	if cur := r.shared.Load(); cur != nil {
		for _, ix := range *cur {
			if sameCols(ix.cols, cols) {
				return ix
			}
		}
	}
	return nil
}

// ensureIndex builds (or fetches) the secondary index on cols. All
// relations — frozen or not — share one publication path: concurrent
// probes read the published index list with one atomic load (a linear
// scan over the few indexes, no allocation on the hot probe path); a
// miss builds the index under buildMu and publishes a fresh copy of
// the list, never mutating a slice another goroutine may be scanning.
// Published indexes are maintained by store() on every later insert and
// patched by Remove on every deletion; a frozen relation's are never
// mutated.
func (r *Relation) ensureIndex(cols []int) *secondary {
	if ix := r.published(cols); ix != nil {
		return ix
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if ix := r.published(cols); ix != nil {
		return ix // lost the build race; reuse the winner's index
	}
	ix := r.buildIndex(cols)
	indexedTuples.Add(uint64(r.Len()))
	var have []*secondary
	if cur := r.shared.Load(); cur != nil {
		have = *cur
	}
	next := make([]*secondary, len(have), len(have)+1)
	copy(next, have)
	next = append(next, ix)
	r.shared.Store(&next)
	return ix
}

// buildIndex scans the relation once and builds the index on cols,
// sized exactly. The count pass claims a slot per distinct key in a
// table sized for the worst case (every tuple a distinct key) and
// notes each position's slot; the fill pass lays the runs out back to
// back and drops the positions in, in position order. The slot table
// and key arena are then trimmed to the distinct-key count.
func (r *Relation) buildIndex(cols []int) *secondary {
	n := r.Len()
	ix := &secondary{cols: append([]int(nil), cols...)}
	ix.slots = make([]islot, slotsFor(n))
	ix.mask = uint64(len(ix.slots) - 1)
	ix.keys = make([]value.Value, 0, n*len(cols))
	slotOf := make([]int32, n)
	r.Scan(0, -1, func(pos int, t value.Tuple) bool {
		h := t.ProjectHash(ix.cols)
		i := ix.find(h, t, ix.cols)
		if i < 0 {
			i = ix.claim(h, t)
		}
		ix.slots[i].n++
		slotOf[pos] = int32(i)
		return true
	})
	ix.pool = make([]int32, n)
	start := int32(0)
	for i := range ix.slots {
		if s := &ix.slots[i]; s.key > 0 {
			s.start, s.cap, s.n = start, s.n, 0
			start += s.cap
		}
	}
	for pos, i := range slotOf {
		s := &ix.slots[i]
		ix.pool[s.start+s.n] = int32(pos)
		s.n++
	}
	if size := slotsFor(ix.live); size < len(ix.slots) {
		ix.reslot(size)
	}
	if len(ix.keys) < cap(ix.keys) {
		ix.keys = append(make([]value.Value, 0, len(ix.keys)), ix.keys...)
	}
	return ix
}

// Probe returns the positions of the tuples whose projection onto cols
// equals key (a tuple of len(cols) values). An index on cols is built on
// first use and maintained by subsequent inserts and removals. The
// result is a read-only snapshot: later inserts never change it.
func (r *Relation) Probe(cols []int, key value.Tuple) []int32 {
	if len(cols) == 0 {
		// Degenerate probe: every tuple matches.
		all := make([]int32, r.Len())
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	return r.ensureIndex(cols).probe(key)
}

// ProbeTuples is Probe but materializes the matching tuples.
func (r *Relation) ProbeTuples(cols []int, key value.Tuple) []value.Tuple {
	pos := r.Probe(cols, key)
	out := make([]value.Tuple, len(pos))
	for i, p := range pos {
		out[i] = r.At(int(p))
	}
	return out
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
