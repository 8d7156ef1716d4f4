package core

import (
	"fmt"
	"strings"
	"testing"

	"idlog/internal/adorn"
	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

func TestExplainTransitiveClosure(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	res := mustEval(t, src, chainDB(4), Options{Trace: true})
	out, err := res.Explain("tc", value.Ints(0, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The tree must bottom out at input edges and mention the recursive
	// clause.
	if !strings.Contains(out, "[input]") {
		t.Fatalf("no input leaves:\n%s", out)
	}
	if !strings.Contains(out, "tc(X, Y) :- e(X, Z), tc(Z, Y).") {
		t.Fatalf("recursive clause missing:\n%s", out)
	}
	// Depth: tc(0,3) <- e(0,1), tc(1,3) <- e(1,2), tc(2,3) <- e(2,3).
	for _, node := range []string{"tc(0, 3)", "tc(1, 3)", "tc(2, 3)", "e(0, 1)", "e(1, 2)", "e(2, 3)"} {
		if !strings.Contains(out, node) {
			t.Fatalf("node %s missing:\n%s", node, out)
		}
	}
	if got := strings.Count(out, "<="); got != 3 {
		t.Fatalf("expected 3 derivation nodes, got %d:\n%s", got, out)
	}
}

func TestExplainWithIDAndNegationAndArith(t *testing.T) {
	res := mustEval(t, idNegArithSrc, empDB(), Options{Trace: true})
	firstTuple := res.Relation("first").Sorted()[0]
	out, err := res.Explain("first", firstTuple, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[ID-relation choice]") {
		t.Fatalf("ID leaf missing:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	src := `p(a).`
	res := mustEval(t, src, NewDatabase(), Options{})
	if _, err := res.Explain("p", value.Strs("a"), 0); err == nil {
		t.Fatalf("untraced run should refuse Explain")
	}
	traced := mustEval(t, src, NewDatabase(), Options{Trace: true})
	if _, err := traced.Explain("p", value.Strs("zzz"), 0); err == nil {
		t.Fatalf("absent tuple should error")
	}
	out, err := traced.Explain("p", value.Strs("a"), 0)
	if err != nil || !strings.Contains(out, "p(a)") {
		t.Fatalf("fact explanation: %q %v", out, err)
	}
}

func TestExplainDepthLimit(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	res := mustEval(t, src, chainDB(30), Options{Trace: true})
	out, err := res.Explain("tc", value.Ints(0, 30), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "depth limit") {
		t.Fatalf("depth limit not applied:\n%s", out)
	}
}

func TestTraceDoesNotChangeResults(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	db := chainDB(12)
	plain := mustEval(t, src, db, Options{})
	traced := mustEval(t, src, db, Options{Trace: true})
	if !plain.Relation("tc").Equal(traced.Relation("tc")) {
		t.Fatalf("tracing changed the model")
	}
}

// idNegArithSrc mixes an ID-literal with a dead variable (D in first),
// negation over a derived predicate, and arithmetic. The executor never
// writes dead variables into the environment, so provenance must read
// the ground body from the cursors.
const idNegArithSrc = `
	first(N) :- emp[2](N, D, 0).
	lonely(N) :- emp(N, D), not crowd(D), succ(0, K), K = 1.
	crowd(D) :- emp(N, D), emp(N2, D), N != N2.
`

// idNegArithDB is empDB plus a one-person department, so lonely is
// non-empty and its derivation records an absent negated fact.
func idNegArithDB() *Database {
	db := empDB()
	_ = db.Add("emp", value.Strs("kim", "books"))
	return db
}

// TestExplainGolden pins the complete Explain text of every derived
// tuple of idNegArithSrc, as produced by the recursive-walk executor
// this engine replaced.
func TestExplainGolden(t *testing.T) {
	const want = `crowd(shoes)  <=  crowd(D) :- emp(N, D), emp(N2, D), N != N2.
  emp(bob, shoes)  [input]
  emp(eve, shoes)  [input]
  neq(bob, eve)  [arithmetic]
crowd(toys)  <=  crowd(D) :- emp(N, D), emp(N2, D), N != N2.
  emp(joe, toys)  [input]
  emp(sue, toys)  [input]
  neq(joe, sue)  [arithmetic]
first(ann)  <=  first(N) :- emp[2](N, D, 0).
  emp(ann, toys, 0)  [ID-relation choice]
first(bob)  <=  first(N) :- emp[2](N, D, 0).
  emp(bob, shoes, 0)  [ID-relation choice]
first(kim)  <=  first(N) :- emp[2](N, D, 0).
  emp(kim, books, 0)  [ID-relation choice]
lonely(kim)  <=  lonely(N) :- emp(N, D), not crowd(D), succ(0, K), K = 1.
  succ(0, 1)  [arithmetic]
  eq(1, 1)  [arithmetic]
  emp(kim, books)  [input]
  not crowd(books)  [absent]
`
	res := mustEval(t, idNegArithSrc, idNegArithDB(), Options{Trace: true})
	var b strings.Builder
	for _, p := range []string{"crowd", "first", "lonely"} {
		for _, tup := range res.Relation(p).Sorted() {
			tree, err := res.Explain(p, tup, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tree)
		}
	}
	if b.String() != want {
		t.Fatalf("explain text changed\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// checkProvenance verifies every recorded derivation of a traced result
// against the program: the recorded clause exists, its body unifies
// with the recorded ground facts, each positive fact is in its relation
// or ID-relation, each negated fact is absent, each arithmetic fact
// holds, and the head instantiated by the recorded facts is the derived
// tuple itself.
func checkProvenance(t *testing.T, name string, info *analysis.Info, res *Result) {
	t.Helper()
	clauses := map[string]*analysis.OrderedClause{}
	for _, s := range info.Strata {
		for _, oc := range s.Clauses {
			clauses[oc.Source.String()] = oc
		}
	}
	for p := range info.IDB {
		for _, derived := range res.Relation(p).Tuples() {
			at := fmt.Sprintf("%s: %s%v", name, p, derived)
			entry, ok := res.prov[provKey(p, derived)]
			if !ok {
				t.Errorf("%s: no recorded derivation", at)
				continue
			}
			oc := clauses[entry.clause]
			if oc == nil {
				t.Errorf("%s: recorded clause %q is not in the program", at, entry.clause)
				continue
			}
			body := oc.Clause.Body
			if len(entry.body) != len(body) {
				t.Errorf("%s: %d recorded facts for %d body literals", at, len(entry.body), len(body))
				continue
			}
			env := map[string]value.Value{}
			unify := func(args []ast.Term, tup value.Tuple) bool {
				if len(args) != len(tup) {
					return false
				}
				for i, a := range args {
					switch a := a.(type) {
					case ast.Const:
						if !tup[i].Equal(a.Val) {
							return false
						}
					case ast.Var:
						if v, ok := env[a.Name]; ok && !v.Equal(tup[i]) {
							return false
						}
						env[a.Name] = tup[i]
					}
				}
				return true
			}
			for i, l := range body {
				f := entry.body[i]
				if f.pred != l.Atom.Pred || f.neg != l.Neg || !unify(l.Atom.Args, f.tuple) {
					t.Errorf("%s: recorded fact %s does not match literal %s", at, f, l)
					continue
				}
				if b, ok := arith.Lookup(l.Atom.Pred); ok {
					mask := make([]bool, len(f.tuple))
					for j := range mask {
						mask[j] = true
					}
					sols, err := b.Solve(f.tuple, mask)
					if err != nil || (len(sols) > 0) == l.Neg {
						t.Errorf("%s: arithmetic fact %s does not hold (%v)", at, f, err)
					}
					continue
				}
				var rel *relation.Relation
				if l.Atom.IsID {
					rel = res.idrels[analysis.IDNeed{Pred: l.Atom.Pred, Group: l.Atom.Group}.Key()]
				} else {
					rel = res.Relation(l.Atom.Pred)
				}
				present := rel != nil && rel.Contains(f.tuple)
				if present == l.Neg {
					t.Errorf("%s: fact %s has the wrong presence (present=%v)", at, f, present)
				}
			}
			head := make(value.Tuple, len(oc.Clause.Head.Args))
			for i, a := range oc.Clause.Head.Args {
				switch a := a.(type) {
				case ast.Const:
					head[i] = a.Val
				case ast.Var:
					head[i] = env[a.Name]
				}
			}
			if !head.Equal(derived) {
				t.Errorf("%s: recorded facts instantiate the head to %v", at, head)
			}
		}
	}
}

// paperExampleInfos analyzes the paper's Examples 1–8: the six source
// programs plus the §4 rewrite of Example 6 w.r.t. q. Example 4 is
// given in its Theorem-2 translation (package choice imports core, so
// the test states the translated program directly).
func paperExampleInfos(t *testing.T) map[string]*analysis.Info {
	t.Helper()
	srcs := map[string]string{
		"ex1-man": `
			sex_guess(X, male) :- person(X).
			sex_guess(X, female) :- person(X).
			man(X) :- sex_guess[1](X, male, 1).`,
		"ex2-man-woman": `
			sex_guess(X, male) :- person(X).
			sex_guess(X, female) :- person(X).
			man(X) :- sex_guess[1](X, male, 1).
			woman(X) :- sex_guess[1](X, female, 1).`,
		"ex3-dl-contrast": `
			guess(X, in) :- person(X).
			guess(X, out) :- person(X).
			chosen(X) :- guess[1](X, in, 1).`,
		"ex4-choice": `
			pick(N, D) :- emp(N, D), ext_choice_0_sel(D, N).
			ext_choice_0(D, N) :- emp(N, D).
			ext_choice_0_sel(D, N) :- ext_choice_0[1](D, N, 0).`,
		"ex5-sampling": `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`,
		"ex6-reach-source": `
			q(X) :- a(X, Y).
			a(X, Y) :- p(X, Z), a(Z, Y).
			a(X, Y) :- p(X, Y).`,
	}
	infos := map[string]*analysis.Info{}
	for name, src := range srcs {
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatal(err)
		}
		if name == "ex6-reach-source" {
			opt, err := adorn.Optimize(prog, "q")
			if err != nil {
				t.Fatal(err)
			}
			if infos["ex7-8-optimized"], err = analysis.Analyze(opt); err != nil {
				t.Fatal(err)
			}
		}
		if infos[name], err = analysis.Analyze(prog); err != nil {
			t.Fatal(err)
		}
	}
	return infos
}

// TestProvenanceSound checks every traced derivation of the paper's
// Examples 1–8 (under the canonical and a random oracle) and of
// idNegArithSrc against the program it claims to instantiate.
func TestProvenanceSound(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 6; i++ {
		_ = db.Add("person", value.Strs(fmt.Sprintf("p%02d", i)))
	}
	for d := 0; d < 4; d++ {
		for e := 0; e < 5; e++ {
			_ = db.Add("emp", value.Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 30; i++ {
		_ = db.Add("p", value.Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("v%03d", i+1)))
		if i%5 == 0 {
			_ = db.Add("p", value.Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("w%03d", i)))
		}
	}
	for name, info := range paperExampleInfos(t) {
		for _, oracle := range []relation.Oracle{nil, relation.RandomOracle{Seed: 42}} {
			res, err := Eval(info, db, Options{Trace: true, Oracle: oracle})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkProvenance(t, name, info, res)
		}
	}
	info := mustAnalyze(t, idNegArithSrc)
	res, err := Eval(info, idNegArithDB(), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, "id-neg-arith", info, res)
}
