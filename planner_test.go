package idlog

import (
	"fmt"
	"strings"
	"testing"
)

// TestPlannerPreservesPaperExamples is the ISSUE's end-to-end planner
// acceptance check: the paper's Examples 1–8 (7–8 derived from 6 via
// Program.Optimize, as in the paper) must produce byte-identical
// answer sets, fingerprints, and seeded sample distributions with the
// planner on and off, sequentially and with 4 workers.
func TestPlannerPreservesPaperExamples(t *testing.T) {
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
	workloads = append(workloads,
		workload{"ex7-8-optimized", ex8, nil},
		workload{"ex7-8-optimized-seeded", ex8, []Option{WithSeed(42)}})

	modelOf := func(w workload, extra ...Option) string {
		t.Helper()
		res, err := w.prog.Eval(db, append(append([]Option{}, w.opts...), extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var b strings.Builder
		for _, p := range w.prog.OutputPredicates() {
			fmt.Fprintf(&b, "%s=%s\n", p, res.Relation(p).Fingerprint())
		}
		return b.String()
	}

	for _, w := range workloads {
		want := modelOf(w) // planner on: the reference
		variants := []struct {
			name  string
			extra []Option
		}{
			{"planner-off", []Option{WithPlanner(false)}},
		}
		for _, v := range variants {
			if got := modelOf(w, v.extra...); got != want {
				t.Errorf("%s: %s model diverged from planner-on\nwant:\n%s\ngot:\n%s",
					w.name, v.name, want, got)
			}
		}
	}
}
