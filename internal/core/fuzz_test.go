package core

import (
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// FuzzEval drives the whole pipeline — parse, analyze, evaluate under
// two oracles — on arbitrary program text against a small fixed
// database. Budgets keep runaway programs bounded; the property is
// "no panic, the two oracles agree on ID-free predicates, and neither
// the planner nor tracing changes the model".
func FuzzEval(f *testing.F) {
	seeds := []string{
		"p(a).",
		"tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).",
		"sel(N) :- emp[2](N, D, T), T < 2.",
		"man(X) :- guess[1](X, m, 1).\nguess(X, m) :- person(X).\nguess(X, f) :- person(X).",
		"nat(0).\nnat(Y) :- nat(X), X < 9, succ(X, Y).",
		"u(X) :- e(X, Y), not e(Y, X).",
		"p2(X, L, M) :- q(X, N), add(L, M, N).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := NewDatabase()
	_ = db.AddAll("e", value.Ints(1, 2), value.Ints(2, 3), value.Ints(3, 1))
	_ = db.AddAll("emp", value.Strs("joe", "toys"), value.Strs("sue", "toys"), value.Strs("bob", "shoes"))
	_ = db.AddAll("person", value.Strs("a"), value.Strs("b"))
	_ = db.AddAll("q", value.Tuple{value.Str("x"), value.Int(4)})

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Program(src)
		if err != nil {
			return
		}
		if prog.HasChoice() {
			return
		}
		info, err := analysis.Analyze(prog)
		if err != nil {
			return
		}
		// The fuzz DB has fixed relation arities; arity clashes yield
		// clean errors, which are fine.
		opts := Options{MaxDerivations: 20000}
		a, errA := Eval(info, db, opts)
		opts.Oracle = relation.RandomOracle{Seed: 7}
		b, errB := Eval(info, db, opts)
		if (errA == nil) != (errB == nil) {
			// Budget errors can differ across oracles (different
			// ID-assignments change derivation counts); that is the
			// only allowed asymmetry.
			return
		}
		if errA != nil {
			return
		}
		// ID-free derived predicates must not vary with the oracle.
		usesID := prog.HasID()
		if !usesID {
			for p := range info.IDB {
				if !a.Relation(p).Equal(b.Relation(p)) {
					t.Fatalf("oracle changed ID-free predicate %s\nprogram: %s", p, src)
				}
			}
		}
		// Planner differential: with the same (nil) oracle, planner-on
		// and planner-off runs must agree exactly. Budget errors may trip
		// at different points across join orders — that is the only
		// allowed asymmetry.
		offOpts := Options{MaxDerivations: 20000, NoPlanner: true}
		c, errC := Eval(info, db, offOpts)
		if errC != nil {
			return
		}
		for p := range info.IDB {
			if !a.Relation(p).Equal(c.Relation(p)) {
				t.Fatalf("planner changed predicate %s\nprogram: %s", p, src)
			}
		}
		// Trace differential: a traced run (sequential, planner off) must
		// compute the same model, and every derivation it records must
		// instantiate the program soundly.
		traced, errT := Eval(info, db, Options{MaxDerivations: 20000, Trace: true})
		if errT != nil {
			return
		}
		for p := range info.IDB {
			if !a.Relation(p).Equal(traced.Relation(p)) {
				t.Fatalf("tracing changed predicate %s\nprogram: %s", p, src)
			}
		}
		checkProvenance(t, src, info, traced)
	})
}
