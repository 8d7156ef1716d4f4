package idlog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// paperGolden pins one paper-example workload to the behaviour recorded
// when the join executor still had a recursive-walk twin: the output
// relations' fingerprints (identical under every configuration), the
// full Stats of a sequential run, a traced run and a planner-off run,
// and a digest — tuple count, byte length and SHA-256
// — of the Explain text of every output tuple under WithTrace.
type paperGolden struct {
	model                   string
	seq, traced, plannerOff Stats
	explain                 string
}

var paperGoldens = map[string]paperGolden{
	"ex1-man": {
		model:      "man=b517254aa1c226f3 sex_guess=91071e3bd729ae26",
		seq:        Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		explain:    "18/1596/b6460e41627a12bcfb0879c98988416ec305205ad75d5b9ba46b5aaaff37b247",
	},
	"ex1-man-seeded": {
		model:      "man=7d50f4bbbfbb19ac sex_guess=91071e3bd729ae26",
		seq:        Stats{Derivations: 16, Inserted: 16, TuplesScanned: 16, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 16, Inserted: 16, TuplesScanned: 16, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 16, Inserted: 16, TuplesScanned: 16, Iterations: 2, IDRelations: 1},
		explain:    "16/1400/80924064a2f3c591b536c955c7456fa23d3ebbeec6afdf14875235b8ef4cef3d",
	},
	"ex2-man-woman": {
		model:      "man=b517254aa1c226f3 sex_guess=91071e3bd729ae26 woman=da145b46a23951d0",
		seq:        Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		explain:    "18/1596/b6460e41627a12bcfb0879c98988416ec305205ad75d5b9ba46b5aaaff37b247",
	},
	"ex2-man-woman-seeded": {
		model:      "man=7d50f4bbbfbb19ac sex_guess=91071e3bd729ae26 woman=a5f110078d847a76",
		seq:        Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 18, Inserted: 18, TuplesScanned: 18, Iterations: 2, IDRelations: 1},
		explain:    "18/1612/0e872190991fd5153b1651d73b63cfcf1e1eba244f7cf97eeda9e2ee3ac109e1",
	},
	"ex3-dl-contrast": {
		model:      "chosen=da145b46a23951d0 guess=a65f81a9135b4622",
		seq:        Stats{Derivations: 12, Inserted: 12, TuplesScanned: 12, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 12, Inserted: 12, TuplesScanned: 12, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 12, Inserted: 12, TuplesScanned: 12, Iterations: 2, IDRelations: 1},
		explain:    "12/852/230f64121c6898091ea7480783207f7e6987ecd684589aa4702eb23a1c1c7c53",
	},
	"ex3-dl-contrast-seeded": {
		model:      "chosen=2df40f567e723a37 guess=a65f81a9135b4622",
		seq:        Stats{Derivations: 15, Inserted: 15, TuplesScanned: 15, Iterations: 2, IDRelations: 1},
		traced:     Stats{Derivations: 15, Inserted: 15, TuplesScanned: 15, Iterations: 2, IDRelations: 1},
		plannerOff: Stats{Derivations: 15, Inserted: 15, TuplesScanned: 15, Iterations: 2, IDRelations: 1},
		explain:    "15/1128/b8d3b3f868fbeefe7131a4d7628c235f2d8468bc9c9f6f536aa728579560b761",
	},
	"ex4-choice": {
		model:      "ext_choice_0=15296b9c12b2ebeb ext_choice_0_sel=1d1a8d7edc45db66 pick=d1400585b5a2adef",
		seq:        Stats{Derivations: 28, Inserted: 28, TuplesScanned: 52, Iterations: 4, IDRelations: 1},
		traced:     Stats{Derivations: 28, Inserted: 28, TuplesScanned: 68, Iterations: 4, IDRelations: 1},
		plannerOff: Stats{Derivations: 28, Inserted: 28, TuplesScanned: 68, Iterations: 4, IDRelations: 1},
		explain:    "28/3376/58d1ba7edc76bc8b189970e91d9c0425042b1e6f8a769eb2375b214e8fe27699",
	},
	"ex4-choice-seeded": {
		model:      "ext_choice_0=15296b9c12b2ebeb ext_choice_0_sel=fce6ad4c512612d0 pick=bb88ba97f3534c3a",
		seq:        Stats{Derivations: 28, Inserted: 28, TuplesScanned: 52, Iterations: 4, IDRelations: 1},
		traced:     Stats{Derivations: 28, Inserted: 28, TuplesScanned: 68, Iterations: 4, IDRelations: 1},
		plannerOff: Stats{Derivations: 28, Inserted: 28, TuplesScanned: 68, Iterations: 4, IDRelations: 1},
		explain:    "28/3376/23908edfdf42c5e986950a07d5fc9e38b4a6d4217ca06bd839d1819f8f80cb3b",
	},
	"ex5-sampling": {
		model:      "select_two_emp=d2c4dcc4a150c4cd",
		seq:        Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		traced:     Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		plannerOff: Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		explain:    "8/1192/9b4317158c8a14fd288d84c0781ecd1240307066a4d04b9fdbbf0378a1bb4527",
	},
	"ex5-sampling-seeded": {
		model:      "select_two_emp=edbc4134b755a073",
		seq:        Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		traced:     Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		plannerOff: Stats{Derivations: 8, Inserted: 8, TuplesScanned: 8, Iterations: 1, IDRelations: 1},
		explain:    "8/1192/b5ba0114adcf3b0fc85c23deab77a6196822782c59a1261b6e1dfebb39888970",
	},
	"ex6-reach-source": {
		model:      "a=ee440d816122f8e8 q=89bc74f0f176a6da",
		seq:        Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 1674, Iterations: 31},
		traced:     Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 2208, Iterations: 31},
		plannerOff: Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 2208, Iterations: 31},
		explain:    "576/490444/e39eaad65dbde99e4526fed781d2d52b2c9468d8cbaa6a2199fcd8c3c6d8e3b6",
	},
	"ex6-reach-source-seeded": {
		model:      "a=ee440d816122f8e8 q=89bc74f0f176a6da",
		seq:        Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 1674, Iterations: 31},
		traced:     Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 2208, Iterations: 31},
		plannerOff: Stats{Derivations: 1092, Inserted: 576, TuplesScanned: 2208, Iterations: 31},
		explain:    "576/490444/e39eaad65dbde99e4526fed781d2d52b2c9468d8cbaa6a2199fcd8c3c6d8e3b6",
	},
	"ex7-8-optimized": {
		model:      "a=89bc74f0f176a6da q=89bc74f0f176a6da",
		seq:        Stats{Derivations: 89, Inserted: 60, TuplesScanned: 155, Iterations: 3, IDRelations: 1},
		traced:     Stats{Derivations: 89, Inserted: 60, TuplesScanned: 161, Iterations: 3, IDRelations: 1},
		plannerOff: Stats{Derivations: 89, Inserted: 60, TuplesScanned: 161, Iterations: 3, IDRelations: 1},
		explain:    "60/5550/4ecf786f96a64c331b5d9c028059355c419f6a458d9e01902cc2033a2108315c",
	},
}

// goldenChildEnv marks the fresh process TestStreamingPreservesPaperExamples
// re-runs itself in.
const goldenChildEnv = "IDLOG_PAPER_GOLDEN_CHILD"

// TestStreamingPreservesPaperExamples is the join executor's end-to-end
// acceptance check: the paper's Examples 1–8, seeded and unseeded, must
// reproduce the golden fingerprints, statistics (down to
// TuplesScanned) and derivation trees exactly — sequentially, traced
// and with the planner off.
//
// Symbol IDs are process-global and issued in interning order;
// fingerprints hash them and the seeded oracle keys its permutations on
// them. The goldens were recorded in a process that interned this
// test's symbols first, so the check re-runs itself in a fresh process.
func TestStreamingPreservesPaperExamples(t *testing.T) {
	if os.Getenv(goldenChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStreamingPreservesPaperExamples$", "-test.count=1")
		cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("golden check in a fresh process: %v\n%s", err, out)
		}
		return
	}
	db := paperDB()

	type workload struct {
		name string
		prog *Program
		opts []Option
	}
	var workloads []workload
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		workloads = append(workloads, workload{ex.name, prog, nil})
		workloads = append(workloads, workload{ex.name + "-seeded", prog, []Option{WithSeed(42)}})
	}
	ex6 := mustParse(t, paperExamples[5].src)
	ex8, err := ex6.Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, workload{"ex7-8-optimized", ex8, nil})
	if len(workloads) != len(paperGoldens) {
		t.Fatalf("%d workloads, %d goldens", len(workloads), len(paperGoldens))
	}

	for _, w := range workloads {
		want, ok := paperGoldens[w.name]
		if !ok {
			t.Fatalf("%s: no golden", w.name)
		}
		variants := []struct {
			name  string
			stats Stats
			extra []Option
		}{
			{"sequential", want.seq, nil},
			{"traced", want.traced, []Option{WithTrace()}},
			{"planner-off", want.plannerOff, []Option{WithPlanner(false)}},
		}
		for _, v := range variants {
			res, err := w.prog.Eval(db, append(append([]Option{}, w.opts...), v.extra...)...)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, v.name, err)
			}
			var fps []string
			for _, p := range w.prog.OutputPredicates() {
				fps = append(fps, p+"="+res.Relation(p).Fingerprint())
			}
			if got := strings.Join(fps, " "); got != want.model {
				t.Errorf("%s/%s: model\n got %s\nwant %s", w.name, v.name, got, want.model)
			}
			if res.Stats != v.stats {
				t.Errorf("%s/%s: stats\n got %#v\nwant %#v", w.name, v.name, res.Stats, v.stats)
			}
			if v.name != "traced" {
				continue
			}
			var text strings.Builder
			n := 0
			for _, p := range w.prog.OutputPredicates() {
				for _, tup := range res.Relation(p).Sorted() {
					tree, err := res.Explain(p, tup, 0)
					if err != nil {
						t.Fatalf("%s: explain %s%v: %v", w.name, p, tup, err)
					}
					text.WriteString(tree)
					n++
				}
			}
			if got := fmt.Sprintf("%d/%d/%x", n, text.Len(), sha256.Sum256([]byte(text.String()))); got != want.explain {
				t.Errorf("%s: explain digest\n got %s\nwant %s", w.name, got, want.explain)
			}
		}
	}
}

// diskSeam reports whether the IDLOG_ENGINE=disk test seam is active;
// it reroutes every public call through a fresh database (new version
// stamp), so plan-cache hit assertions do not apply.
func diskSeam() bool { return os.Getenv("IDLOG_ENGINE") == "disk" }

// TestPreparedQueryMatchesQuery pins the prepared-query API: same rows
// as Program.Query, typed parse errors, and actual plan-cache hits on
// repeated runs against an unchanged database.
func TestPreparedQueryMatchesQuery(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := NewDatabase()
	if err := AddFactsText(db, "e(a, b). e(b, c). e(c, d)."); err != nil {
		t.Fatal(err)
	}
	db.Freeze()

	pq, err := prog.Prepare("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if pq.Goal() != "tc(a, Y)" {
		t.Fatalf("Goal() = %q", pq.Goal())
	}
	want, err := prog.Query(db, "tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := pq.Query(db)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
			t.Fatalf("run %d: prepared rows %v, want %v", i, got.Rows, want.Rows)
		}
	}
	if hits, misses := pq.CacheStats(); !diskSeam() && (hits != 2 || misses != 1) {
		t.Fatalf("plan cache: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// A malformed goal surfaces as a typed parse error from Prepare.
	if _, err := prog.Prepare("tc(a, "); err == nil {
		t.Fatal("Prepare accepted a malformed goal")
	} else {
		var ie *Error
		if !errors.As(err, &ie) || ie.Code != CodeParseError {
			t.Fatalf("Prepare error = %v, want CodeParseError", err)
		}
	}
}

// TestPlanCacheInvalidation is the ISSUE's property test: a seeded
// random interleaving of Database.Apply mutations with cached prepared
// queries must always agree with a fresh parse+compile+plan of the
// same goal — sequentially and with 4 workers — and the plan cache
// must actually hit between mutations.
func TestPlanCacheInvalidation(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), edge(Y, Z).
		unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
	`)
	const nodes = 8
	db := NewDatabase()
	for i := 0; i < nodes; i++ {
		_ = db.Add("node", Strs(fmt.Sprintf("n%d", i)))
	}
	_ = db.Add("edge", Strs("n0", "n1"))
	db = db.Freeze()

	goals := []string{"tc(n0, Y)", "unreach(X, n1)"}
	prepared := make([]*PreparedQuery, len(goals))
	for i, g := range goals {
		pq, err := prog.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = pq
	}

	rng := rand.New(rand.NewSource(7))
	edge := func() Fact {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		return Fact{Pred: "edge", Tuple: Strs(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))}
	}
	for round := 0; round < 40; round++ {
		// Mutate roughly every other round so cached plans both hit
		// (same version) and invalidate (new version).
		if round > 0 && rng.Intn(2) == 0 {
			var ins, del []Fact
			for n := rng.Intn(3); n >= 0; n-- {
				ins = append(ins, edge())
			}
			if rng.Intn(2) == 0 {
				del = append(del, edge())
			}
			next, _, err := db.Apply(ins, del)
			if err != nil {
				t.Fatalf("round %d: apply: %v", round, err)
			}
			db = next
		}
		gi := rng.Intn(len(goals))
		for pass := 0; pass < 2; pass++ {
			cached, err := prepared[gi].Query(db)
			if err != nil {
				t.Fatalf("round %d: prepared: %v", round, err)
			}
			fresh, err := prog.Query(db, goals[gi])
			if err != nil {
				t.Fatalf("round %d: fresh: %v", round, err)
			}
			if fmt.Sprint(cached.Rows) != fmt.Sprint(fresh.Rows) {
				t.Fatalf("round %d goal %q pass %d: cached %v != fresh %v",
					round, goals[gi], pass, cached.Rows, fresh.Rows)
			}
		}
	}
	if !diskSeam() {
		var hits uint64
		for _, pq := range prepared {
			h, m := pq.CacheStats()
			if h+m == 0 {
				t.Fatal("prepared query never consulted its plan cache")
			}
			hits += h
		}
		// Each round runs the same goal twice against one database
		// version, so hits are guaranteed in-memory.
		if hits == 0 {
			t.Fatal("plan cache never hit across 40 rounds")
		}
	}
}

// TestSetDiskCacheBytes pins the runtime-resizable block-cache budget:
// shrinking the process-wide cache must shed resident bytes down to
// the new budget, and growing it must widen admission.
func TestSetDiskCacheBytes(t *testing.T) {
	defer SetDiskCacheBytes(64 << 20) // restore the default budget
	SetDiskCacheBytes(1 << 20)
	if _, _, bytes := DiskCacheStats(); bytes > 1<<20 {
		t.Fatalf("cache holds %d bytes after shrinking to 1 MiB", bytes)
	}
	SetDiskCacheBytes(64 << 20)
	if _, _, bytes := DiskCacheStats(); bytes > 64<<20 {
		t.Fatalf("cache holds %d bytes, budget 64 MiB", bytes)
	}
}
