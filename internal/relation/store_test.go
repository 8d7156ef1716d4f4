package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"idlog/internal/value"
)

// TestRemoveKeepsIndexesPublished is the regression test for the old
// behavior of dropping every secondary index on every deletion: after a
// Remove, published indexes must stay published (patched, not rebuilt)
// and keep answering probes exactly.
func TestRemoveKeepsIndexesPublished(t *testing.T) {
	r := New("e", 2)
	for i := 0; i < 40; i++ {
		r.MustInsert(value.Tuple{value.Int(int64(i % 7)), value.Int(int64(i))})
	}
	// Publish indexes on both columns.
	r.Probe([]int{0}, value.Tuple{value.Int(3)})
	r.Probe([]int{1}, value.Tuple{value.Int(9)})
	published := r.shared.Load()
	if published == nil || len(*published) != 2 {
		t.Fatalf("expected 2 published indexes, got %v", published)
	}
	if _, err := r.Remove(value.Tuple{value.Int(3), value.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if got := r.shared.Load(); got != published {
		t.Fatalf("Remove dropped or republished the index list")
	}
	for _, pos := range r.Probe([]int{0}, value.Tuple{value.Int(3)}) {
		if !r.At(int(pos))[0].Equal(value.Int(3)) {
			t.Fatalf("patched index returned wrong tuple %s", r.At(int(pos)))
		}
	}
}

// TestInterleavedInsertRemoveProbes cross-checks probe answers on live
// (patched) indexes against a brute-force scan through a long random
// interleaving of inserts and removals.
func TestInterleavedInsertRemoveProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := New("p", 3)
	tup := func() value.Tuple {
		return value.Tuple{
			value.Int(rng.Int63n(6)), value.Int(rng.Int63n(6)), value.Int(rng.Int63n(6)),
		}
	}
	colSets := [][]int{{0}, {2}, {0, 1}, {1, 2}}
	for step := 0; step < 4000; step++ {
		x := tup()
		if rng.Intn(3) > 0 {
			if _, err := r.Insert(x); err != nil {
				t.Fatal(err)
			}
		} else if _, err := r.Remove(x); err != nil {
			t.Fatal(err)
		}
		if step%97 != 0 {
			continue
		}
		for _, cols := range colSets {
			probe := tup()
			key := probe.Project(cols)
			got := map[string]int{}
			for _, pos := range r.Probe(cols, key) {
				got[r.At(int(pos)).String()]++
			}
			want := map[string]int{}
			for _, u := range r.Tuples() {
				if u.Project(cols).Equal(key) {
					want[u.String()]++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d cols %v key %s: probe %v, scan %v", step, cols, key, got, want)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("step %d cols %v key %s: probe %v, scan %v", step, cols, key, got, want)
				}
			}
		}
	}
}

// TestFingerprintEqualityIffProperty checks the fingerprint contract on
// random relation pairs: set-equal relations (built in different orders,
// through different insert/remove histories) fingerprint equal, and
// unequal sets fingerprint apart.
func TestFingerprintEqualityIffProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		tuples := make([]value.Tuple, n)
		for i := range tuples {
			tuples[i] = value.Tuple{value.Int(rng.Int63n(25)), value.Int(rng.Int63n(25))}
		}
		a := New("a", 2)
		for _, tp := range tuples {
			a.MustInsert(tp)
		}
		// b holds the same set, built in shuffled order with remove/reinsert
		// churn mixed in.
		b := New("b", 2)
		perm := rng.Perm(n)
		for i, j := range perm {
			b.MustInsert(tuples[j])
			if i%3 == 0 {
				if _, err := b.Remove(tuples[j]); err != nil {
					t.Fatal(err)
				}
				b.MustInsert(tuples[j])
			}
		}
		if !a.Equal(b) {
			t.Fatalf("seed %d: construction should be set-equal", seed)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: set-equal relations fingerprint apart", seed)
		}
		// Any single-tuple difference must change the fingerprint.
		c := a.Clone()
		victim := tuples[rng.Intn(n)]
		if _, err := c.Remove(victim); err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() == a.Fingerprint() {
			t.Fatalf("seed %d: removing %s left fingerprint unchanged", seed, victim)
		}
		c.MustInsert(value.Tuple{value.Int(100 + seed), value.Int(100)})
		if c.Fingerprint() == a.Fingerprint() {
			t.Fatalf("seed %d: swapped tuple left fingerprint unchanged", seed)
		}
	}
}

// TestFingerprintEmptyVsNullary preserves the historical distinction
// between an empty relation and a 0-arity relation holding the empty
// tuple (the boolean "true" relation).
func TestFingerprintEmptyVsNullary(t *testing.T) {
	empty := New("p", 0)
	full := New("p", 0)
	full.MustInsert(value.Tuple{})
	if empty.Fingerprint() == full.Fingerprint() {
		t.Fatal("empty relation and {()} share a fingerprint")
	}
	if New("q", 2).Fingerprint() != empty.Fingerprint() {
		t.Fatal("empty relations of different arity should share the empty fingerprint")
	}
}

// TestPrimaryTableChurn stresses the open-addressing table through
// growth, tombstone accumulation, and compaction.
func TestPrimaryTableChurn(t *testing.T) {
	r := New("p", 1)
	alive := map[int64]bool{}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20000; step++ {
		v := rng.Int63n(500)
		if rng.Intn(2) == 0 {
			r.MustInsert(value.Tuple{value.Int(v)})
			alive[v] = true
		} else {
			if _, err := r.Remove(value.Tuple{value.Int(v)}); err != nil {
				t.Fatal(err)
			}
			delete(alive, v)
		}
	}
	if r.Len() != len(alive) {
		t.Fatalf("len=%d want %d", r.Len(), len(alive))
	}
	for v := range alive {
		if !r.Contains(value.Tuple{value.Int(v)}) {
			t.Fatalf("lost %d", v)
		}
	}
	keys := make([]int64, 0, len(alive))
	for v := range alive {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := make([]string, len(keys))
	for i, v := range keys {
		want[i] = fmt.Sprintf("(%d)", v)
	}
	got := r.Sorted()
	for i := range got {
		if got[i].String() != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
