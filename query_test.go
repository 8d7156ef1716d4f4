package idlog

import (
	"runtime"
	"testing"
)

func TestQueryBindings(t *testing.T) {
	prog, err := Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := AddFactsText(db, "e(a, b). e(b, c)."); err != nil {
		t.Fatal(err)
	}
	qr, err := prog.Query(db, "tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Vars) != 1 || qr.Vars[0] != "Y" {
		t.Fatalf("vars = %v", qr.Vars)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %v", qr.Rows)
	}
}

func TestQueryGroundGoal(t *testing.T) {
	prog, err := Parse(`p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	yes, err := prog.Query(db, "p(a)")
	if err != nil {
		t.Fatal(err)
	}
	no, err := prog.Query(db, "p(b)")
	if err != nil {
		t.Fatal(err)
	}
	if !yes.Holds() || no.Holds() {
		t.Fatalf("ground goals: yes=%v no=%v", yes.Holds(), no.Holds())
	}
}

func TestQueryConjunctionWithComparison(t *testing.T) {
	prog, err := Parse(`score(a, 3). score(b, 9).`)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := prog.Query(NewDatabase(), "score(X, S), S > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].String() != "b" {
		t.Fatalf("rows = %v", qr.Rows)
	}
}

func TestQueryIDLiteral(t *testing.T) {
	prog, err := Parse(`emp(joe, toys). emp(sue, toys).`)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := prog.Query(NewDatabase(), "emp[2](N, D, 0)", WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 {
		t.Fatalf("rows = %v", qr.Rows)
	}
}

func TestQueryBadGoal(t *testing.T) {
	prog, err := Parse(`p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Query(NewDatabase(), "p(X), q("); err == nil {
		t.Fatalf("bad goal accepted")
	}
	// Unsafe goal: variable only in negation.
	if _, err := prog.Query(NewDatabase(), "not p(X)"); err == nil {
		t.Fatalf("unsafe goal accepted")
	}
}

func TestAddFactsTextRejections(t *testing.T) {
	db := NewDatabase()
	if err := AddFactsText(db, "p(X) :- q(X)."); err == nil {
		t.Fatalf("rule accepted as fact")
	}
	if err := AddFactsText(db, "p(X)."); err == nil {
		t.Fatalf("non-ground fact accepted")
	}
	if err := AddFactsText(db, "p(a,"); err == nil {
		t.Fatalf("syntax error accepted")
	}
}

func TestQueryAvoidsAnsCollision(t *testing.T) {
	prog, err := Parse(`ans(a). ans_(b).`)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := prog.Query(NewDatabase(), "ans(X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].String() != "a" {
		t.Fatalf("rows = %v", qr.Rows)
	}
}

// TestSequentialBoundQueryAllocs bounds the bytes a sequential bound
// transitive-closure query allocates. The demand-rewritten program
// probes its per-round delta relations; an index on a delta must be
// sized by the delta, not pre-sized by the planner's estimate for the
// whole relation (which once inflated this query to ~21 MB, against
// ~13 MB now).
func TestSequentialBoundQueryAllocs(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := NewDatabase()
	for i := int64(0); i < 256; i++ {
		_ = db.Add("e", Ints(i, i+1))
	}
	db.Freeze()
	pq, err := prog.Prepare("tc(3, Y)")
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		qr, err := pq.Query(db)
		if err != nil {
			t.Fatal(err)
		}
		if !qr.UsedMagic || len(qr.Rows) != 253 {
			t.Fatalf("UsedMagic=%v rows=%d, want the demand path and 253 rows", qr.UsedMagic, len(qr.Rows))
		}
	}
	query() // warm the plan cache and the EDB index
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	const limit = 16 << 20
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Fatalf("sequential bound query allocates %d bytes, want at most %d", per, limit)
	}
}
