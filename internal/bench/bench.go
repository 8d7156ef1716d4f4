// Package bench implements the experiment harness of EXPERIMENTS.md:
// one generator per experiment (E1–E11), each returning a Table whose
// rows regenerate the corresponding claim of the paper. cmd/idlogbench
// prints the tables; the root-level bench_test.go exposes the same
// workloads as testing.B benchmarks.
package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E1..E10).
	ID string
	// Title describes the experiment.
	Title string
	// Claim cites the paper's qualitative claim being checked.
	Claim string
	// Columns are the header names.
	Columns []string
	// Rows hold the measurements, already formatted.
	Rows [][]string
	// Notes carries caveats or derived observations.
	Notes []string
	// ElapsedNS is the wall-clock cost of generating the table,
	// recorded by Run for the JSON report.
	ElapsedNS int64
}

// Render formats the table for terminals.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// mustParse parses program text, panicking on error (harness-internal
// programs are constants).
func mustParse(src string) *ast.Program {
	p, err := parser.Program(src)
	if err != nil {
		panic(err)
	}
	return p
}

// mustAnalyze analyzes, panicking on error.
func mustAnalyze(p *ast.Program) *analysis.Info {
	info, err := analysis.Analyze(p)
	if err != nil {
		panic(err)
	}
	return info
}

// timed runs f once and returns its wall-clock duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// ms formats a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// EmpDB builds the emp(Name, Dept) workload: depts × perDept.
func EmpDB(depts, perDept int) *core.Database {
	db := core.NewDatabase()
	for d := 0; d < depts; d++ {
		dept := value.Str(fmt.Sprintf("dept%03d", d))
		for e := 0; e < perDept; e++ {
			_ = db.Add("emp", value.Tuple{value.Str(fmt.Sprintf("e%03d_%04d", d, e)), dept})
		}
	}
	return db
}

// ChainFanDB builds the §4 optimization workload: a chain of length
// chain in relation p, where each chain node additionally points at fan
// distinct leaves.
func ChainFanDB(chain, fan int) *core.Database {
	db := core.NewDatabase()
	leaf := int64(1 << 20)
	for i := int64(0); i < int64(chain); i++ {
		_ = db.Add("p", value.Ints(i, i+1))
		for f := 0; f < fan; f++ {
			_ = db.Add("p", value.Ints(i, leaf))
			leaf++
		}
	}
	return db
}

// ChainDB builds e(i, i+1) for i in [0, n).
func ChainDB(n int) *core.Database {
	db := core.NewDatabase()
	for i := int64(0); i < int64(n); i++ {
		_ = db.Add("e", value.Ints(i, i+1))
	}
	return db
}

// GridDB builds a g×g grid graph in relation e (right and down edges).
func GridDB(g int) *core.Database {
	db := core.NewDatabase()
	id := func(r, c int) int64 { return int64(r*g + c) }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			if c+1 < g {
				_ = db.Add("e", value.Ints(id(r, c), id(r, c+1)))
			}
			if r+1 < g {
				_ = db.Add("e", value.Ints(id(r, c), id(r+1, c)))
			}
		}
	}
	return db
}

// noPlannerEnv disables the join planner for every harness evaluation
// when IDLOG_BENCH_NOPLANNER is set — the ablation baseline for
// comparing the E1–E14 suite with and without planning. (E15 compares
// on-vs-off within one run and ignores this knob for its "on" cells
// only in the sense that setting it collapses both cells to "off".)
var noPlannerEnv = os.Getenv("IDLOG_BENCH_NOPLANNER") != ""

// evalOnce analyzes-and-evaluates and returns the result.
func evalOnce(info *analysis.Info, db *core.Database, opts core.Options) *core.Result {
	if noPlannerEnv {
		opts.NoPlanner = true
	}
	res, err := core.Eval(info, db, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// seededOpts returns options with a seeded random oracle.
func seededOpts(seed uint64) core.Options {
	return core.Options{Oracle: relation.RandomOracle{Seed: seed}}
}

// RenderMarkdown formats the table as GitHub-flavoured markdown, for
// pasting into EXPERIMENTS.md.
func (t *Table) RenderMarkdown() string {
	esc := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		return out
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Claim.** %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(esc(t.Columns), " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(esc(r), " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// resultFingerprint renders every output predicate canonically, in
// sorted predicate order.
func resultFingerprint(res *core.Result, info *analysis.Info) string {
	preds := make([]string, 0, len(info.IDB))
	for p := range info.IDB {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var b strings.Builder
	for _, p := range preds {
		fmt.Fprintf(&b, "%s=%s\n", p, res.Relation(p).Fingerprint())
	}
	return b.String()
}
