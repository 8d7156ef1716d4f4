package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"idlog/internal/value"
)

// checkIndex validates the slab layout of ix against r: every position
// of r sits in exactly one live run, under the key its tuple projects
// to, runs never overlap, and the live/used/dead accounting adds up.
func checkIndex(ix *secondary, r *Relation) error {
	w := len(ix.cols)
	seen := make([]bool, r.Len())
	owner := make([]int, len(ix.pool))
	for i := range owner {
		owner[i] = -1
	}
	live, used, capSum := 0, 0, 0
	for si, s := range ix.slots {
		if s.key == 0 {
			continue
		}
		used++
		if s.key < 0 {
			continue
		}
		live++
		capSum += int(s.cap)
		if s.n <= 0 || s.n > s.cap || int(s.start+s.cap) > len(ix.pool) {
			return fmt.Errorf("slot %d: run start %d n %d cap %d over pool %d", si, s.start, s.n, s.cap, len(ix.pool))
		}
		for c := s.start; c < s.start+s.cap; c++ {
			if owner[c] >= 0 {
				return fmt.Errorf("pool cell %d shared by slots %d and %d", c, owner[c], si)
			}
			owner[c] = si
		}
		k := int(s.key-1) * w
		key := value.Tuple(ix.keys[k : k+w])
		if key.Hash() != s.hash {
			return fmt.Errorf("slot %d: stored hash does not match key %v", si, key)
		}
		for _, p := range ix.pool[s.start : s.start+s.n] {
			if int(p) >= r.Len() || seen[p] {
				return fmt.Errorf("slot %d: position %d out of range or listed twice", si, p)
			}
			seen[p] = true
			if !r.At(int(p)).Project(ix.cols).Equal(key) {
				return fmt.Errorf("slot %d: position %d holds %v, not key %v", si, p, r.At(int(p)), key)
			}
		}
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("position %d missing from the index", p)
		}
	}
	if live != ix.live || used != ix.used {
		return fmt.Errorf("live/used %d/%d, counted %d/%d", ix.live, ix.used, live, used)
	}
	if ix.deadKeys != ix.nkeys-ix.live {
		return fmt.Errorf("deadKeys %d, want nkeys %d - live %d", ix.deadKeys, ix.nkeys, ix.live)
	}
	if ix.deadPool != len(ix.pool)-capSum {
		return fmt.Errorf("deadPool %d, want %d", ix.deadPool, len(ix.pool)-capSum)
	}
	if len(ix.keys) != ix.nkeys*w {
		return fmt.Errorf("key arena holds %d values for %d keys of width %d", len(ix.keys), ix.nkeys, w)
	}
	return nil
}

// bytes reports the memory held by the index's arrays.
func (ix *secondary) bytes() int {
	return cap(ix.slots)*int(unsafe.Sizeof(islot{})) +
		cap(ix.keys)*int(unsafe.Sizeof(value.Value{})) +
		cap(ix.pool)*int(unsafe.Sizeof(int32(0)))
}

// checkPublished validates every index published on r.
func checkPublished(t *testing.T, r *Relation) {
	t.Helper()
	if cur := r.shared.Load(); cur != nil {
		for _, ix := range *cur {
			if err := checkIndex(ix, r); err != nil {
				t.Fatalf("%s index on %v: %v", r.Name(), ix.cols, err)
			}
		}
	}
}

// scanProbe is the linear-scan reference for Probe: the positions of
// r whose projection onto cols equals key, in position order.
func scanProbe(r *Relation, cols []int, key value.Tuple) []int32 {
	var out []int32
	for p := 0; p < r.Len(); p++ {
		if r.At(p).Project(cols).Equal(key) {
			out = append(out, int32(p))
		}
	}
	return out
}

// sortedPositions returns a sorted copy of ps.
func sortedPositions(ps []int32) []int32 {
	out := slices.Clone(ps)
	slices.Sort(out)
	return out
}

// oldGroups is the map-based grouping Groups used before it grouped
// through the secondary index, kept as the parity reference.
func oldGroups(r *Relation, cols []int) []Group {
	byKey := make(map[string]*Group)
	var order []string
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		k := t.ProjectKey(cols)
		g, ok := byKey[k]
		if !ok {
			g = &Group{Key: t.Project(cols)}
			byKey[k] = g
			order = append(order, k)
		}
		g.Members = append(g.Members, t)
		return true
	})
	out := make([]Group, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	for i := range out {
		ms := out[i].Members
		sort.Slice(ms, func(a, b int) bool { return ms[a].Compare(ms[b]) < 0 })
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.Compare(out[b].Key) < 0 })
	return out
}

// sameGroups reports the first difference between two groupings, in
// keys, member order or member count.
func sameGroups(got, want []Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Key.Equal(want[i].Key) {
			return fmt.Errorf("group %d key %v, want %v", i, got[i].Key, want[i].Key)
		}
		if len(got[i].Members) != len(want[i].Members) {
			return fmt.Errorf("group %v: %d members, want %d", got[i].Key, len(got[i].Members), len(want[i].Members))
		}
		for j := range got[i].Members {
			if !got[i].Members[j].Equal(want[i].Members[j]) {
				return fmt.Errorf("group %v member %d: %v, want %v", got[i].Key, j, got[i].Members[j], want[i].Members[j])
			}
		}
	}
	return nil
}

// snapshot is a probe result and a copy of its contents when taken.
type snapshot struct {
	got, want []int32
}

// FuzzIndex drives random sequences of Insert, InsertShared, Remove,
// Append, Probe, Groups and Freeze, decoded from
// the input bytes, and checks every probe and grouping against a linear
// scan and every index against its layout invariants. Values come from
// a domain of six, so keys repeat, lists empty out and refill, runs
// move and indexes compact. Probe results taken since the last Remove
// must keep their contents: later inserts and compactions never write
// inside them.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 5, 0, 3, 4, 2, 5, 0, 1, 6, 7, 3, 8, 9})
	seed := make([]byte, 600)
	rng := rand.New(rand.NewSource(3))
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	f.Add(seed)
	// Churn: fill r, index it, empty it and refill it, so runs move,
	// keys are tombstoned and reused, and the index compacts.
	var churn []byte
	for _, op := range []byte{0, 5, 2, 1, 5, 7} {
		for a := byte(0); a < 6; a++ {
			for b := byte(0); b < 6; b++ {
				churn = append(churn, op, a, b)
			}
		}
	}
	f.Add(churn)
	f.Fuzz(fuzzIndexOps)
}

// fuzzIndexOps runs one FuzzIndex input.
func fuzzIndexOps(t *testing.T, data []byte) {
	colSets := [][]int{{0}, {1}, {0, 1}, {1, 0}}
	r := New("r", 2)
	d := NewDelta("d", 2, 0)
	inD := map[[2]int64]bool{}
	var snaps []snapshot // on r, dropped by Remove
	var dsnaps []snapshot
	buf := make(value.Tuple, 2)
	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	for i := 0; i < len(data); {
		op := next(&i) % 8
		a, b := int64(next(&i)%6), int64(next(&i)%6)
		tup := value.Tuple{value.Int(a), value.Int(b)}
		cols := colSets[int(a+b)%len(colSets)]
		switch op {
		case 0:
			if _, err := r.Insert(tup); (err != nil) != r.Frozen() {
				t.Fatalf("Insert error %v on frozen=%v", err, r.Frozen())
			}
		case 1:
			// The buffer is reused: the index must not alias it.
			buf[0], buf[1] = tup[0], tup[1]
			if _, err := r.InsertShared(buf); (err != nil) != r.Frozen() {
				t.Fatalf("InsertShared error %v on frozen=%v", err, r.Frozen())
			}
			buf[0], buf[1] = value.Int(99), value.Int(99)
		case 2:
			removed, err := r.Remove(tup)
			if (err != nil) != r.Frozen() {
				t.Fatalf("Remove error %v on frozen=%v", err, r.Frozen())
			}
			if removed {
				snaps = nil
			}
		case 3:
			if k := [2]int64{a, b}; !inD[k] {
				inD[k] = true
				d.Append(tup)
			}
		case 5, 6:
			rel, ss := r, &snaps
			if op == 6 {
				rel, ss = d, &dsnaps
			}
			key := tup.Project(cols)
			got := rel.Probe(cols, key)
			if want := scanProbe(rel, cols, key); !slices.Equal(sortedPositions(got), want) {
				t.Fatalf("%s probe %v=%v: %v, scan %v", rel.Name(), cols, key, got, want)
			}
			if len(got) > 0 {
				*ss = append(*ss, snapshot{got: got, want: slices.Clone(got)})
			}
		case 7:
			gcols := cols
			if b == 0 {
				gcols = nil
			}
			if err := sameGroups(r.Groups(gcols), oldGroups(r, gcols)); err != nil {
				t.Fatalf("Groups(%v): %v", gcols, err)
			}
		case 4:
			if a == 0 && b == 0 {
				r.Freeze()
			}
			fz := r.DeepClone().Freeze()
			key := tup.Project(cols)
			if got, want := fz.Probe(cols, key), scanProbe(fz, cols, key); !slices.Equal(sortedPositions(got), want) {
				t.Fatalf("frozen probe %v: %v, scan %v", key, got, want)
			}
			if err := sameGroups(fz.Groups(cols), oldGroups(fz, cols)); err != nil {
				t.Fatalf("frozen Groups(%v): %v", cols, err)
			}
			checkPublished(t, fz)
		}
		checkPublished(t, r)
		checkPublished(t, d)
		for _, ss := range [][]snapshot{snaps, dsnaps} {
			for _, s := range ss {
				if !slices.Equal(s.got, s.want) {
					t.Fatalf("probe snapshot changed: %v, taken as %v", s.got, s.want)
				}
			}
		}
	}
}

// TestIndexSlabLifecycle scripts the maintenance paths of one index: a
// run growing in place at the pool's tail, a run moving to the tail, a
// key tombstoned and its slot reused, and compaction, checking the
// layout after each step and that no probe snapshot changes.
func TestIndexSlabLifecycle(t *testing.T) {
	r := New("r", 2)
	for k := 0; k < 4; k++ {
		r.MustInsert(value.Ints(int64(k), 0))
	}
	r.Probe([]int{0}, value.Ints(0)) // builds exactly: every cap == n == 1
	ix := r.published([]int{0})
	if err := checkIndex(ix, r); err != nil {
		t.Fatal(err)
	}
	if len(ix.pool) != 4 || ix.deadPool != 0 {
		t.Fatalf("fresh build pool %d dead %d, want 4 and 0", len(ix.pool), ix.deadPool)
	}
	slotOf := func(k int64) *islot {
		return &ix.slots[ix.find(value.Ints(k).Hash(), value.Ints(k), nil)]
	}
	// Pick a mover whose run does not end the pool; the others get
	// tombstoned one by one.
	var mover int64
	for int(slotOf(mover).start) == len(ix.pool)-1 {
		mover++
	}
	var others []int64
	for k := int64(0); k < 4; k++ {
		if k != mover {
			others = append(others, k)
		}
	}
	first := r.Probe([]int{0}, value.Ints(mover))

	// The mover's run is full and not at the tail: it moves with double
	// the room and its old cell goes dead.
	oldStart := slotOf(mover).start
	r.MustInsert(value.Ints(mover, 1))
	if s := slotOf(mover); s.start == oldStart || s.cap != 2 || ix.deadPool != 1 {
		t.Fatalf("move: start %d→%d cap %d dead %d", oldStart, s.start, s.cap, ix.deadPool)
	}
	// Now it ends the pool: the next insert extends it in place, the one
	// after fills the room that left.
	start := slotOf(mover).start
	r.MustInsert(value.Ints(mover, 2))
	r.MustInsert(value.Ints(mover, 3))
	if s := slotOf(mover); s.start != start || s.n != 4 || s.cap != 4 {
		t.Fatalf("tail growth: start %d→%d n %d cap %d", start, s.start, s.n, s.cap)
	}
	if len(first) != 1 || r.At(int(first[0]))[0] != value.Int(mover) {
		t.Fatalf("snapshot taken before the inserts changed: %v", first)
	}
	if err := checkIndex(ix, r); err != nil {
		t.Fatal(err)
	}

	// Emptying a key tombstones its slot; a new key hashing to that slot
	// reuses it without raising used.
	tomb := ix.find(value.Ints(others[0]).Hash(), value.Ints(others[0]), nil)
	if _, err := r.Remove(value.Ints(others[0], 0)); err != nil {
		t.Fatal(err)
	}
	if ix.slots[tomb].key != -1 {
		t.Fatalf("emptied key not tombstoned: %+v", ix.slots[tomb])
	}
	var fresh int64 = 100
	for value.Ints(fresh).Hash()&ix.mask != uint64(tomb) {
		fresh++
	}
	used := ix.used
	r.MustInsert(value.Ints(fresh, 0))
	if ix.slots[tomb].key <= 0 || ix.used != used {
		t.Fatalf("tombstone not reused: slot %+v used %d→%d", ix.slots[tomb], used, ix.used)
	}
	if err := checkIndex(ix, r); err != nil {
		t.Fatal(err)
	}

	// Two more removals make dead keys outnumber live ones: the index
	// compacts into fresh arrays, leaving the old pool as it was.
	before := r.Probe([]int{0}, value.Ints(mover))
	want := slices.Clone(before)
	oldPool := ix.pool
	for _, k := range others[1:] {
		if _, err := r.Remove(value.Ints(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if &ix.pool[0] == &oldPool[0] || ix.deadKeys != 0 || ix.deadPool != 0 || len(ix.pool) != 5 {
		t.Fatalf("no compaction: pool %d, dead keys %d, dead pool %d", len(ix.pool), ix.deadKeys, ix.deadPool)
	}
	if !slices.Equal(before, want) {
		t.Fatalf("compaction wrote into an old snapshot: %v, want %v", before, want)
	}
	if err := checkIndex(ix, r); err != nil {
		t.Fatal(err)
	}
	if got := r.Probe([]int{0}, value.Ints(mover)); len(got) != 4 {
		t.Fatalf("mover after compaction: %v", got)
	}
}

// TestIndexBuildAllocs pins the fresh build to a constant number of
// allocations, whatever the relation's size or key count.
func TestIndexBuildAllocs(t *testing.T) {
	r := New("r", 2)
	for i := 0; i < 100_000; i++ {
		r.MustInsert(value.Ints(int64(i), int64(i%1000)))
	}
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		allocs := testing.AllocsPerRun(3, func() { r.buildIndex(cols) })
		if allocs > 16 {
			t.Errorf("index on %v over 100k tuples: %.0f allocations, want ≤ 16", cols, allocs)
		}
	}
}

// tcChain returns the transitive closure of the chain 0 → 1 → … → n:
// n(n+1)/2 pairs, in the order a semi-naive fixpoint derives them (by
// path length).
func tcChain(n int) []value.Tuple {
	var out []value.Tuple
	for l := 1; l <= n; l++ {
		for i := 0; i+l <= n; i++ {
			out = append(out, value.Ints(int64(i), int64(i+l)))
		}
	}
	return out
}

// TestIndexBytesPerTuple pins the memory of the slab layout on TC
// chain-256 (32,896 tuples): a one-column index ≤ 16 B/tuple and a
// full-key index ≤ 100 B/tuple, whether built fresh over the final
// relation or maintained insert by insert from the empty one.
func TestIndexBytesPerTuple(t *testing.T) {
	tuples := tcChain(256)
	if len(tuples) != 32896 {
		t.Fatalf("chain-256 closure has %d tuples", len(tuples))
	}
	limits := []struct {
		cols []int
		max  float64
	}{{[]int{0}, 16}, {[]int{0, 1}, 100}}
	for _, lim := range limits {
		fresh := FromTuples("tc", 2, tuples...)
		grown := New("tc", 2)
		grown.Probe(lim.cols, make(value.Tuple, len(lim.cols)))
		for _, tp := range tuples {
			grown.MustInsert(tp)
		}
		for name, r := range map[string]*Relation{"fresh": fresh, "maintained": grown} {
			ix := r.ensureIndex(lim.cols)
			if err := checkIndex(ix, r); err != nil {
				t.Fatal(err)
			}
			per := float64(ix.bytes()) / float64(len(tuples))
			t.Logf("%s index on %v: %.1f B/tuple", name, lim.cols, per)
			if per > lim.max {
				t.Errorf("%s index on %v: %.1f B/tuple, want ≤ %.0f", name, lim.cols, per, lim.max)
			}
		}
	}
}

// TestIndexChurnReclaims runs 100k insert/remove cycles over fresh keys
// against a published index and checks that tombstones and dead runs
// are reclaimed: the index stays within 2× a fresh build of the final
// relation.
func TestIndexChurnReclaims(t *testing.T) {
	const live = 10_000
	r := New("r", 2)
	for i := 0; i < live; i++ {
		r.MustInsert(value.Ints(int64(i), int64(i%7)))
	}
	r.Probe([]int{0}, value.Ints(0))
	ix := r.published([]int{0})
	for c := 0; c < 100_000; c++ {
		r.MustInsert(value.Ints(int64(live+c), int64((live+c)%7)))
		if ok, err := r.Remove(value.Ints(int64(c), int64(c%7))); !ok || err != nil {
			t.Fatalf("cycle %d: remove = %v, %v", c, ok, err)
		}
	}
	if err := checkIndex(ix, r); err != nil {
		t.Fatal(err)
	}
	fresh := r.buildIndex([]int{0})
	t.Logf("after churn %d bytes, fresh build %d", ix.bytes(), fresh.bytes())
	if ix.bytes() > 2*fresh.bytes() {
		t.Fatalf("after churn the index holds %d bytes, a fresh build %d", ix.bytes(), fresh.bytes())
	}
}

// TestGroupsParity checks Groups — keys, member order and the ID
// relations MaterializeIDBounded builds from them — against the old
// map-based grouping on random relations, for every column subset
// including the empty one, on unfrozen relations with and without a
// published index, after removals, and on frozen relations.
func TestGroupsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	oracles := []Oracle{SortedOracle{}, ReverseOracle{}, RandomOracle{Seed: 5}}
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(3)
		base := randomRelation(rng, "p", arity, rng.Intn(40))
		var cols []int
		for c := 0; c < arity; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		removed := base.Clone()
		for _, tp := range base.Tuples() {
			if rng.Intn(3) == 0 {
				if _, err := removed.Remove(tp); err != nil {
					t.Fatal(err)
				}
			}
		}
		indexed := base.Clone()
		if len(cols) > 0 {
			indexed.Probe(cols, make(value.Tuple, len(cols)))
		}
		variants := map[string]*Relation{
			"unfrozen": base,
			"indexed":  indexed,
			"removed":  removed,
			"frozen":   base.DeepClone().Freeze(),
		}
		for name, r := range variants {
			for _, gc := range [][]int{cols, nil} {
				if err := sameGroups(r.Groups(gc), oldGroups(r, gc)); err != nil {
					t.Fatalf("trial %d %s Groups(%v): %v", trial, name, gc, err)
				}
				o := oracles[trial%len(oracles)]
				bound := rng.Intn(3)
				got, err := MaterializeIDBounded(r, "p_id", gc, o, bound)
				if err != nil {
					t.Fatal(err)
				}
				want := oldMaterialize(r, gc, o, bound)
				if !slices.EqualFunc(got.Tuples(), want, value.Tuple.Equal) {
					t.Fatalf("trial %d %s ID-relation on %v bound %d:\n got %v\nwant %v", trial, name, gc, bound, got.Tuples(), want)
				}
			}
		}
	}
}

// oldMaterialize is MaterializeIDBounded over oldGroups, returning the
// ID-relation's tuples in insertion order.
func oldMaterialize(r *Relation, cols []int, o Oracle, bound int) []value.Tuple {
	var out []value.Tuple
	for _, g := range oldGroups(r, cols) {
		perm := o.Permutation(r.name, cols, g)
		for i, t := range g.Members {
			if bound > 0 && perm[i] >= bound {
				continue
			}
			out = append(out, append(t.Clone(), value.Int(int64(perm[i]))))
		}
	}
	return out
}
