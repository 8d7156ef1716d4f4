package relation

import (
	"math/rand"
	"testing"

	"idlog/internal/value"
)

func TestRemoveBasic(t *testing.T) {
	r := FromTuples("e", 2,
		value.Strs("a", "b"), value.Strs("b", "c"), value.Strs("c", "d"))
	ok, err := r.Remove(value.Strs("b", "c"))
	if err != nil || !ok {
		t.Fatalf("Remove = %v, %v; want true, nil", ok, err)
	}
	if r.Len() != 2 || r.Contains(value.Strs("b", "c")) {
		t.Fatalf("after remove: %s", r)
	}
	if !r.Contains(value.Strs("a", "b")) || !r.Contains(value.Strs("c", "d")) {
		t.Fatalf("swap-remove lost a survivor: %s", r)
	}
	// Absent tuple: no-op.
	ok, err = r.Remove(value.Strs("x", "y"))
	if err != nil || ok {
		t.Fatalf("Remove absent = %v, %v; want false, nil", ok, err)
	}
	// Arity mismatch and frozen relation: errors.
	if _, err := r.Remove(value.Strs("a")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	r.Freeze()
	if _, err := r.Remove(value.Strs("a", "b")); err == nil {
		t.Fatal("remove from frozen relation accepted")
	}
}

// TestRemoveLastAndReinsert covers the swap-remove edge cases: removing
// the final tuple, removing the last position, and reuse after empties.
func TestRemoveLastAndReinsert(t *testing.T) {
	r := FromTuples("p", 1, value.Strs("a"), value.Strs("b"))
	if ok, _ := r.Remove(value.Strs("b")); !ok {
		t.Fatal("remove last position failed")
	}
	if ok, _ := r.Remove(value.Strs("a")); !ok {
		t.Fatal("remove only tuple failed")
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after emptying", r.Len())
	}
	r.MustInsert(value.Strs("c"))
	if r.Len() != 1 || !r.Contains(value.Strs("c")) {
		t.Fatalf("reinsert after emptying: %s", r)
	}
}

// TestRemoveInvalidatesIndexes checks that probes after a removal never
// see stale positions: published indexes are patched in place for the
// removed tuple and the tuple moved by swap-remove.
func TestRemoveInvalidatesIndexes(t *testing.T) {
	r := New("e", 2)
	for i := 0; i < 50; i++ {
		r.MustInsert(value.Tuple{value.Int(int64(i % 5)), value.Int(int64(i))})
	}
	// Build (publish) an index on column 0.
	key := value.Tuple{value.Int(3)}
	before := len(r.Probe([]int{0}, key))
	if before == 0 {
		t.Fatal("probe found nothing")
	}
	for i := 0; i < 50; i += 2 {
		if _, err := r.Remove(value.Tuple{value.Int(int64(i % 5)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range r.Probe([]int{0}, key) {
		tup := r.At(int(pos))
		if !tup[0].Equal(value.Int(3)) {
			t.Fatalf("stale index position %d -> %s", pos, tup)
		}
	}
}

// TestRemoveRandomized cross-checks a long random insert/remove
// sequence against a map-based model.
func TestRemoveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New("p", 2)
	model := map[[2]int64]bool{}
	for step := 0; step < 5000; step++ {
		a, b := rng.Int63n(20), rng.Int63n(20)
		tup := value.Tuple{value.Int(a), value.Int(b)}
		if rng.Intn(2) == 0 {
			added, err := r.Insert(tup)
			if err != nil {
				t.Fatal(err)
			}
			if added == model[[2]int64{a, b}] {
				t.Fatalf("step %d: insert added=%v but model has=%v", step, added, model[[2]int64{a, b}])
			}
			model[[2]int64{a, b}] = true
		} else {
			removed, err := r.Remove(tup)
			if err != nil {
				t.Fatal(err)
			}
			if removed != model[[2]int64{a, b}] {
				t.Fatalf("step %d: remove removed=%v but model has=%v", step, removed, model[[2]int64{a, b}])
			}
			delete(model, [2]int64{a, b})
		}
	}
	if r.Len() != len(model) {
		t.Fatalf("len=%d model=%d", r.Len(), len(model))
	}
	for k := range model {
		if !r.Contains(value.Tuple{value.Int(k[0]), value.Int(k[1])}) {
			t.Fatalf("missing %v", k)
		}
	}
}
