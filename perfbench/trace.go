package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/magic"
	"idlog/internal/parser"
	"idlog/internal/relation"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (-1 for the
// operation's root span, named "op.<class>").
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 400000

// tracer records spans in memory for one goroutine. A nil *tracer
// records nothing, so replays run the same code traced and untraced.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int32
	op      int64
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.stack = append(t.stack, -2)
		return
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// beginOp starts a new operation with its root span.
func (t *tracer) beginOp(class string) {
	if t == nil {
		return
	}
	t.op++
	t.begin("op." + class)
}

// durations returns the durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// p50us is the median duration of the named spans in microseconds.
func (t *tracer) p50us(name string) float64 { return medianOf(t.durations(name)) * 1000 }

// layerOf maps a span name to its layer: the prefix before the first
// dot, with operation roots attributed to the benchmark itself.
func layerOf(name string) string {
	if strings.HasPrefix(name, "op.") {
		return "bench"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfReport prints, per operation class, each layer's self time per
// operation and its share of the operation's time. A span's self time is
// its duration minus the time its child spans cover.
func (t *tracer) selfReport() string {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type classAgg struct {
		ops   int
		total int64
		self  map[string]int64
	}
	classes := map[string]*classAgg{}
	rootClass := map[int64]string{}
	for _, s := range t.spans {
		if s.Parent == -1 {
			c := classes[s.Name]
			if c == nil {
				c = &classAgg{self: map[string]int64{}}
				classes[s.Name] = c
			}
			c.ops++
			c.total += s.End - s.Start
			rootClass[s.Op] = s.Name
		}
	}
	for i, s := range t.spans {
		c := classes[rootClass[s.Op]]
		if c == nil {
			continue
		}
		c.self[layerOf(s.Name)] += s.End - s.Start - child[i]
	}
	var b strings.Builder
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# trace: %d spans (%d dropped); self time per operation, ms (share of operation time)\n", len(t.spans), t.dropped)
	for _, n := range names {
		c := classes[n]
		fmt.Fprintf(&b, "#   %-20s ops %6d  mean %8.4f ms:", n, c.ops, float64(c.total)/1e6/float64(c.ops))
		layers := make([]string, 0, len(c.self))
		for l := range c.self {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return c.self[layers[i]] > c.self[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(&b, "  %s %.4f (%.1f%%)", l, float64(c.self[l])/1e6/float64(c.ops), 100*ratio(float64(c.self[l]), float64(c.total)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// replayer is a workload's request stream replayed through the library
// layers: op runs operation i (spanning each layer call when tr is
// non-nil) and returns the milliseconds its calls took.
type replayer interface {
	reset() error
	op(i int, tr *tracer, st *layerStats) float64
}

// layerStats accumulates the counters the library layers report during a
// replay phase.
type layerStats struct {
	alloc *allocCounter

	calls      int // engine calls (queries and evaluations)
	core       idlog.Stats
	planHits   uint64
	planMisses uint64
	prepared   int
	magicUsed  int
	allocBytes float64
	allocObjs  float64

	// Process-wide relation counters at the start and end of the phase:
	// indexed tuples, partitioned tuples, hash collisions.
	relStart, relEnd [3]uint64
}

func relationCounters() [3]uint64 {
	p, q := relation.CollisionCounts()
	return [3]uint64{relation.IndexedTuplesTotal(), relation.PartitionedTuplesTotal(), p + q}
}

func newLayerStats() *layerStats {
	return &layerStats{alloc: newAllocCounter(), relStart: relationCounters()}
}

// stop records the relation counters at the end of a phase, before any
// answer verification runs the engine again.
func (s *layerStats) stop() { s.relEnd = relationCounters() }

// engine wraps one engine call: a span, allocation deltas and counters.
func (s *layerStats) engine(tr *tracer, name string, call func() idlog.Stats) {
	b0, o0 := s.alloc.read()
	tr.begin(name)
	st := call()
	tr.end()
	b1, o1 := s.alloc.read()
	s.allocBytes += b1 - b0
	s.allocObjs += o1 - o0
	s.calls++
	s.core.Add(st)
}

// query runs a prepared query, recording its plan-cache outcome.
func (s *layerStats) query(tr *tracer, pq *idlog.PreparedQuery, db *idlog.Database) (*idlog.QueryResult, error) {
	var qr *idlog.QueryResult
	var err error
	h0, m0 := pq.CacheStats()
	s.engine(tr, "idlog.query", func() idlog.Stats {
		qr, err = pq.Query(db)
		if qr == nil {
			return idlog.Stats{}
		}
		return qr.Stats
	})
	h1, m1 := pq.CacheStats()
	s.planHits += h1 - h0
	s.planMisses += m1 - m0
	return qr, err
}

// eval runs a full-model evaluation.
func (s *layerStats) eval(tr *tracer, prog *idlog.Program, db *idlog.Database, opts ...idlog.Option) (*idlog.Result, error) {
	var res *idlog.Result
	var err error
	s.engine(tr, "idlog.eval", func() idlog.Stats {
		res, err = prog.Eval(db, opts...)
		if res == nil {
			return idlog.Stats{}
		}
		return res.Stats
	})
	return res, err
}

// prepare prepares goal against prog. Before the Program.Prepare call it
// runs the same goal through the layers Prepare uses internally — the
// parser on the wrapper clause, analysis on the wrapper program, and the
// magic-sets rewrite — each in its own span, so their costs are visible
// from outside.
func (s *layerStats) prepare(tr *tracer, prog *idlog.Program, goal string) (*idlog.PreparedQuery, error) {
	tr.begin("parser.parse")
	wrapped, err := parser.Clause("query_wrapper_head :- " + goal + ".")
	tr.end()
	if err != nil {
		return nil, err
	}
	head := &ast.Atom{Pred: "ans"}
	for _, v := range ast.ClauseVars(&ast.Clause{Head: &ast.Atom{Pred: "x"}, Body: wrapped.Body}) {
		head.Args = append(head.Args, v)
	}
	wp := &ast.Program{Clauses: append(append([]*ast.Clause{}, prog.AST().Clauses...), &ast.Clause{Head: head, Body: wrapped.Body})}
	tr.begin("analysis.analyze")
	info, err := analysis.Analyze(wp)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("magic.rewrite")
	_, _ = magic.Rewrite(info, "ans") // inapplicable goals fall back; Prepare reports which via UsesMagic
	tr.end()
	tr.begin("idlog.prepare")
	pq, err := prog.Prepare(goal)
	tr.end()
	if err != nil {
		return nil, err
	}
	s.prepared++
	if pq.UsesMagic() {
		s.magicUsed++
	}
	return pq, nil
}

// parseProgram parses an ad-hoc source through the parser and analysis
// layers, then through idlog.Parse, each in its own span.
func (s *layerStats) parseProgram(tr *tracer, src string) (*idlog.Program, error) {
	tr.begin("parser.parse")
	p, err := parser.Program(src)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("analysis.analyze")
	_, err = analysis.Analyze(p)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("idlog.parse")
	prog, err := idlog.Parse(src)
	tr.end()
	return prog, err
}

// fill writes the engine-layer metrics gathered over ops operations.
func (s *layerStats) fill(rep *report, tr *tracer, ops int) {
	n := float64(ops)
	calls := float64(s.calls)
	rep.layer["idlog.alloc_kb_per_op"] = ratio(s.allocBytes/1024, n)
	rep.layer["idlog.mallocs_per_op"] = ratio(s.allocObjs, n)
	rep.layer["core.derivations_per_op"] = ratio(float64(s.core.Derivations), calls)
	rep.layer["core.scanned_per_op"] = ratio(float64(s.core.TuplesScanned), calls)
	rep.layer["core.iterations_per_op"] = ratio(float64(s.core.Iterations), calls)
	rep.layer["core.inserted_per_derivation"] = ratio(float64(s.core.Inserted), float64(s.core.Derivations))
	rep.layer["core.partitioned_round_ratio"] = ratio(float64(s.core.PartitionedRounds), float64(s.core.Iterations))
	rep.layer["core.plan_cache_hit_ratio"] = ratio(float64(s.planHits), float64(s.planHits+s.planMisses))
	rep.layer["magic.applied_ratio"] = ratio(float64(s.magicUsed), float64(s.prepared))
	rep.layer["relation.indexed_tuples_per_op"] = ratio(float64(s.relEnd[0]-s.relStart[0]), n)
	rep.layer["relation.partitioned_tuples_per_op"] = ratio(float64(s.relEnd[1]-s.relStart[1]), n)
	rep.layer["relation.collisions_per_op"] = ratio(float64(s.relEnd[2]-s.relStart[2]), n)
	if tr == nil {
		return
	}
	rep.layer["idlog.prepare_us_p50"] = tr.p50us("idlog.prepare")
	rep.layer["parser.parse_us_p50"] = tr.p50us("parser.parse")
	rep.layer["analysis.analyze_us_p50"] = tr.p50us("analysis.analyze")
	rep.layer["magic.rewrite_us_p50"] = tr.p50us("magic.rewrite")
	q50 := sortedCopy(tr.durations("idlog.query"))
	rep.layer["idlog.query_ms_p50"] = percentile(q50, 50)
	rep.layer["idlog.query_ms_p99"] = percentile(q50, 99)
	rep.layer["idlog.eval_ms_p50"] = medianOf(tr.durations("idlog.eval"))
}

// verifier is a replayer whose answers are checked after each phase,
// because checking them runs the engine.
type verifier interface{ verify() }

// replayPhase runs r's stream from operation 0 for seconds, returning
// each operation's milliseconds.
func replayPhase(r replayer, seconds float64, tr *tracer, st *layerStats) ([]float64, error) {
	if err := r.reset(); err != nil {
		return nil, err
	}
	var ms []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		ms = append(ms, r.op(i, tr, st))
	}
	st.stop()
	if v, ok := r.(verifier); ok {
		v.verify()
	}
	return ms, nil
}

// tracedReplay is the traced half of a --trace 1 run: the stream runs
// once untraced and once traced, each for seconds, from the same fresh
// state. It reports the per-layer metrics of the traced phase, the
// tracing overhead (traced over untraced mean operation time on the
// operations both phases ran), prints the self-time report, and writes
// the spans out. probes run on the traced tracer after the replay, for
// layer calls a workload makes outside its stream (such as set-up
// parsing).
func tracedReplay(cfg *runConfig, rep *report, r replayer, seconds float64, probes ...func(*tracer)) (*tracer, error) {
	untraced, err := replayPhase(r, seconds, nil, newLayerStats())
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st := newLayerStats()
	traced, err := replayPhase(r, seconds, tr, st)
	if err != nil {
		return nil, err
	}
	n := len(traced)
	if len(untraced) < n {
		n = len(untraced)
	}
	base, with := mean(untraced[:n]), mean(traced[:n])
	rep.layer["trace.overhead_pct"] = 100 * ratio(with-base, base)
	for _, p := range probes {
		p(tr)
	}
	st.fill(rep, tr, len(traced))
	fmt.Printf("# tracing overhead: %.2f%% (mean op %.4f ms traced vs %.4f ms untraced over %d ops)\n",
		rep.layer["trace.overhead_pct"], with, base, n)
	fmt.Print(tr.selfReport())
	path, err := tr.write(filepath.Join(cfg.out, "traces"), fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return tr, nil
}
