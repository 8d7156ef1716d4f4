package idlog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// paperDB is the database the paper-example suites run over: persons
// (Examples 1–3), employees in departments (Examples 4–5) and a p/2
// chain with side branches (Examples 6–8).
func paperDB() *Database {
	db := NewDatabase()
	for i := 0; i < 6; i++ {
		_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
	}
	for d := 0; d < 4; d++ {
		for e := 0; e < 5; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 30; i++ {
		_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("v%03d", i+1)))
		if i%5 == 0 {
			_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("w%03d", i)))
		}
	}
	db.Freeze()
	return db
}

const (
	autoTCSrc = `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	autoReachSrc = `
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
	`
)

// chainsDB is k disjoint chains of l edges; starts marks the head of
// the first `starts` chains. With reverse set, each chain's edges are
// stored last edge first.
func chainsDB(k, l, starts int, reverse bool) *Database {
	db := NewDatabase()
	for c := 0; c < k; c++ {
		for j := 0; j < l; j++ {
			i := j
			if reverse {
				i = l - 1 - j
			}
			_ = db.Add("e", Ints(int64(c*(l+1)+i), int64(c*(l+1)+i+1)))
		}
		if c < starts {
			_ = db.Add("start", Ints(int64(c*(l+1))))
		}
	}
	db.Freeze()
	return db
}

// gridsDB is k disjoint n×n grids with right and down edges.
func gridsDB(k, n int) *Database {
	db := NewDatabase()
	for g := 0; g < k; g++ {
		base := int64(g * n * n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				id := base + int64(r*n+c)
				if c+1 < n {
					_ = db.Add("e", Ints(id, id+1))
				}
				if r+1 < n {
					_ = db.Add("e", Ints(id, id+int64(n)))
				}
			}
		}
	}
	db.Freeze()
	return db
}

// treeDB is a complete fan-ary tree of the given depth rooted at the
// start node: reach's frontier widens fan-fold per round. Edges are
// stored deepest level first.
func treeDB(fan, depth int) *Database {
	var levels [][][2]int64
	next, level := int64(1), []int64{0}
	for d := 0; d < depth; d++ {
		var edges [][2]int64
		var children []int64
		for _, parent := range level {
			for i := 0; i < fan; i++ {
				edges = append(edges, [2]int64{parent, next})
				children = append(children, next)
				next++
			}
		}
		levels = append(levels, edges)
		level = children
	}
	db := NewDatabase()
	_ = db.Add("start", Ints(0))
	for d := len(levels) - 1; d >= 0; d-- {
		for _, e := range levels[d] {
			_ = db.Add("e", Ints(e[0], e[1]))
		}
	}
	db.Freeze()
	return db
}

// TestAutoMatchesSequential is the auto configuration's differential
// suite: with no parallelism or partitions set, every fixpoint round
// runs inline, so the run must be the WithParallelism(1) run — identical
// fingerprints of every output relation and identical Stats — on small
// workloads and on rounds large enough to tempt a fan-out, including a
// widening frontier. The same workloads under WithParallelism(4), which
// forces every round out, must keep the fingerprints and show their
// partitioned rounds. GOMAXPROCS is raised to 4 so the auto
// configuration sees a multi-core default even on a 1-core runner.
func TestAutoMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if DefaultParallelism() < 2 {
		t.Fatalf("DefaultParallelism() = %d under GOMAXPROCS(4)", DefaultParallelism())
	}
	type workload struct {
		name string
		prog *Program
		db   *Database
		opts []Option
	}
	var workloads []workload
	pdb := paperDB()
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		workloads = append(workloads,
			workload{ex.name, prog, pdb, nil},
			workload{ex.name + "-seeded", prog, pdb, []Option{WithSeed(42)}})
	}
	ex8, err := mustParse(t, paperExamples[5].src).Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	tc, reach := mustParse(t, autoTCSrc), mustParse(t, autoReachSrc)
	workloads = append(workloads,
		workload{"ex7-8-optimized", ex8, pdb, nil},
		workload{"tc-chain-256", tc, chainsDB(1, 256, 0, false), nil},
		workload{"tc-grid-20", tc, gridsDB(1, 20), nil},
		workload{"reach-sparse-4000x3", reach, chainsDB(4000, 3, 1, false), nil},
		// Large first delta rounds: every edge and path the seed round
		// derived. Edge orders are chosen so the seed round's scan cannot
		// already chain the whole closure (a sequential pass sees the
		// tuples it inserts).
		workload{"tc-chains-2000x4", tc, chainsDB(2000, 4, 0, false), nil},
		workload{"tc-grids-300x4", tc, gridsDB(300, 4), nil},
		workload{"reach-sparse-8000x3-all-starts", reach, chainsDB(8000, 3, 8000, true), nil},
		// A widening frontier: 16^4 leaves in the last round.
		workload{"reach-tree-16^4", reach, treeDB(16, 4), nil},
	)

	for _, w := range workloads {
		seq, err := w.prog.Eval(w.db, append([]Option{WithParallelism(1)}, w.opts...)...)
		if err != nil {
			t.Fatalf("%s sequential: %v", w.name, err)
		}
		auto, err := w.prog.Eval(w.db, w.opts...)
		if err != nil {
			t.Fatalf("%s auto: %v", w.name, err)
		}
		forced, err := w.prog.Eval(w.db, append([]Option{WithParallelism(4)}, w.opts...)...)
		if err != nil {
			t.Fatalf("%s forced: %v", w.name, err)
		}
		for _, p := range w.prog.OutputPredicates() {
			want := seq.Relation(p).Fingerprint()
			if got := auto.Relation(p).Fingerprint(); got != want {
				t.Errorf("%s: auto %s fingerprint %s, sequential %s", w.name, p, got, want)
			}
			if got := forced.Relation(p).Fingerprint(); got != want {
				t.Errorf("%s: forced %s fingerprint %s, sequential %s", w.name, p, got, want)
			}
		}
		if auto.Stats != seq.Stats {
			t.Errorf("%s: auto stats\n %#v\ndiffer from sequential\n %#v", w.name, auto.Stats, seq.Stats)
		}
		if strings.HasPrefix(w.name, "reach-") || strings.HasPrefix(w.name, "tc-") {
			if forced.Stats.PartitionedRounds == 0 {
				t.Errorf("%s: WithParallelism(4) ran no partitioned round", w.name)
			}
		}
	}
}

// TestAutoBudgets: budgets trip the auto configuration exactly as they
// trip the sequential engine — typed ResourceExhausted errors, partial
// models that are sound prefixes of the full model, the same Stats, the
// tuple budget exact and the derivation budget a hard ceiling.
func TestAutoBudgets(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prog, db := mustParse(t, autoReachSrc), chainsDB(8000, 3, 8000, true)
	full, err := prog.Eval(db, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	total := countIDB(prog, full)
	// The seed round holds 16000 tuples after 16000 derivations, so the
	// limits trip in the seed round and in two later rounds.
	for _, limit := range []int{10000, 20000, 30000} {
		budgets := []struct {
			name string
			opt  Option
		}{{"tuples", WithMaxTuples(limit)}, {"derivations", WithMaxDerivations(limit)}}
		for _, b := range budgets {
			seq, serr := prog.Eval(db, WithParallelism(1), b.opt)
			auto, err := prog.Eval(db, b.opt)
			wantCode(t, err, CodeResourceExhausted)
			wantPartial(t, auto, err)
			subsetOf(t, prog, auto, full)
			if serr == nil || auto.Stats != seq.Stats || countIDB(prog, auto) != countIDB(prog, seq) {
				t.Fatalf("max %s %d: auto run (%d tuples, %+v) differs from sequential (%d tuples, %+v, err %v)",
					b.name, limit, countIDB(prog, auto), auto.Stats, countIDB(prog, seq), seq.Stats, serr)
			}
			switch {
			case b.name == "tuples" && countIDB(prog, auto) != limit:
				t.Fatalf("max tuples %d: partial model holds %d tuples", limit, countIDB(prog, auto))
			case b.name == "derivations" && auto.Stats.Derivations > limit:
				t.Fatalf("max derivations %d: ran %d derivations", limit, auto.Stats.Derivations)
			}
		}
	}
	res, err := prog.Eval(db, WithMaxTuples(total))
	if err != nil || res.Incomplete {
		t.Fatalf("max tuples == model size still tripped: %v", err)
	}
}
