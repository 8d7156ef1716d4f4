package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"idlog"
)

// Programs the workloads run. tcLeft is the left-linear transitive
// closure idlogd serves bound goals over (the magic-sets rewrite seeds
// only the goal's node); tcRight is the right-linear form of the E6/E19
// fixpoint kernels.
const (
	tcLeftSrc = `tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
`
	tcRightSrc = `tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`
	// sampleSrc is the paper's Example 4: two employees per department.
	sampleSrc = `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
`
	reachSrc = `reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
`
	// example6Src is the §4 Example 6 existential-argument program.
	example6Src = `q(X) :- a(X, Y).
a(X, Y) :- p(X, Z), a(Z, Y).
a(X, Y) :- p(X, Y).
`
	// coloringSrc is examples/coloring's guess-and-check 3-coloring.
	coloringSrc = `cand(N, red) :- node(N).
cand(N, green) :- node(N).
cand(N, blue) :- node(N).
color(N, C) :- cand[1](N, C, 0).
conflict :- edge(X, Y), color(X, C), color(Y, C).
proper :- not conflict.
`
)

// rulebaseSrc is E17's layered rulebase: layer i joins layer i-1 with
// one more edge, and each layer is its own stratum.
func rulebaseSrc(layers int) string {
	var b strings.Builder
	b.WriteString("l0(X, Y) :- e(X, Y).\n")
	for i := 1; i < layers; i++ {
		fmt.Fprintf(&b, "l%d(X, Y) :- l%d(X, Z), e(Z, Y).\n", i, i-1)
	}
	return b.String()
}

// factsText accumulates ground facts in program syntax.
type factsText struct{ b strings.Builder }

func (f *factsText) add(pred string, args ...any) {
	f.b.WriteString(pred)
	f.b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			f.b.WriteString(", ")
		}
		fmt.Fprint(&f.b, a)
	}
	f.b.WriteString(").\n")
}

func (f *factsText) String() string { return f.b.String() }

// database parses facts text into a frozen database.
func database(text string) (*idlog.Database, error) {
	db := idlog.NewDatabase()
	if err := idlog.AddFactsText(db, text); err != nil {
		return nil, err
	}
	db.Freeze()
	return db, nil
}

// chainFacts is e(i, i+1) for i in [0, n).
func chainFacts(n int) string {
	var f factsText
	for i := 0; i < n; i++ {
		f.add("e", i, i+1)
	}
	return f.String()
}

// gridFacts is a side×side grid (right and down edges) whose node ids
// start at base.
func gridFacts(side, base int) string {
	var f factsText
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := base + r*side + c
			if c+1 < side {
				f.add("e", id, id+1)
			}
			if r+1 < side {
				f.add("e", id, id+side)
			}
		}
	}
	return f.String()
}

// empFacts is emp(Name, Dept) for depts × perDept employees.
func empFacts(depts, perDept int) string {
	var f factsText
	for d := 0; d < depts; d++ {
		for e := 0; e < perDept; e++ {
			f.add("emp", fmt.Sprintf("e%03d_%04d", d, e), fmt.Sprintf("dept%03d", d))
		}
	}
	return f.String()
}

// sparseReachFacts is E19's demand-sparse kernel: k disjoint chains of
// length l with the start marker on one of them, chosen by rng.
func sparseReachFacts(rng *rand.Rand, k, l int) string {
	var f factsText
	for c := 0; c < k; c++ {
		for i := 0; i < l; i++ {
			f.add("e", fmt.Sprintf("c%d_%d", c, i), fmt.Sprintf("c%d_%d", c, i+1))
		}
	}
	f.add("start", fmt.Sprintf("c%d_0", rng.Intn(k)))
	return f.String()
}

// chainFanFacts is the §4 workload: a chain in p where every chain node
// also points at fan distinct leaves.
func chainFanFacts(chain, fan int) string {
	var f factsText
	leaf := 1 << 20
	for i := 0; i < chain; i++ {
		f.add("p", i, i+1)
		for j := 0; j < fan; j++ {
			f.add("p", i, leaf)
			leaf++
		}
	}
	return f.String()
}

// randomGraphFacts is a seeded random graph of n nodes and m distinct
// non-loop edges, as node/1 and edge/2 facts.
func randomGraphFacts(rng *rand.Rand, n, m int) string {
	var f factsText
	for i := 0; i < n; i++ {
		f.add("node", i)
	}
	seen := map[[2]int]bool{}
	for len(seen) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		f.add("edge", a, b)
	}
	return f.String()
}

// seedFor derives the i-th per-request seed of a run.
func seedFor(runSeed uint64, i int) uint64 {
	x := runSeed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x >> 1
}

// blockPlan returns one block of a stratified stream: counts[c] copies
// of class c in seeded random order, so every block holds exactly the
// configured mix.
func blockPlan(rng *rand.Rand, counts []int) []int {
	var out []int
	for c, n := range counts {
		for i := 0; i < n; i++ {
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stream hands out a seeded, stratified sequence of operations: blocks
// holding exactly the mix's counts of each class in random order, each
// class expanded into operations by gen. It is safe for concurrent use;
// a fresh stream with the same seed repeats the same sequence.
type stream[T any] struct {
	mu    sync.Mutex
	rng   *rand.Rand
	mix   []int
	gen   func(rng *rand.Rand, class int) []T
	queue []T
}

func newStream[T any](seed int64, mix []int, gen func(rng *rand.Rand, class int) []T) *stream[T] {
	return &stream[T]{rng: rand.New(rand.NewSource(seed)), mix: mix, gen: gen}
}

func (s *stream[T]) next() T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		for _, c := range blockPlan(s.rng, s.mix) {
			s.queue = append(s.queue, s.gen(s.rng, c)...)
		}
	}
	op := s.queue[0]
	s.queue = s.queue[1:]
	return op
}
