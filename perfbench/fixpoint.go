package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/parser"
)

// fixpoint-batch: one library caller runs Program.Eval on frozen
// databases in a seeded order. Every round runs each kernel its weight's
// number of times, so the mix is exact whatever the seed.
type kernel struct {
	name   string
	src    string
	weight int
	seeded bool // takes a per-call sampling seed
	facts  func(rng *rand.Rand) string

	prog    *idlog.Program
	db      *idlog.Database
	outputs []string
	want    map[uint64]string // seed (0 when unseeded) -> model fingerprint
}

const fixpointSeedPool = 32

func fixpointKernels() []*kernel {
	return []*kernel{
		{name: "tc-chain-256", src: tcRightSrc, weight: 1, facts: func(*rand.Rand) string { return chainFacts(256) }},
		{name: "tc-grid-20", src: tcRightSrc, weight: 1, facts: func(*rand.Rand) string { return gridFacts(20, 0) }},
		{name: "reach-4000x3", src: reachSrc, weight: 3, facts: func(rng *rand.Rand) string { return sparseReachFacts(rng, 4000, 3) }},
		{name: "ex4-emp-50x20", src: sampleSrc, weight: 6, seeded: true, facts: func(*rand.Rand) string { return empFacts(50, 20) }},
		{name: "ex6-chainfan-64x4", src: example6Src, weight: 1, facts: func(*rand.Rand) string { return chainFanFacts(64, 4) }},
		{name: "coloring-200", src: coloringSrc, weight: 4, seeded: true, facts: func(rng *rand.Rand) string { return randomGraphFacts(rng, 200, 400) }},
	}
}

// fop is one evaluation of the stream: a kernel and its seed.
type fop struct {
	k    int
	seed uint64
}

type fixpointBatch struct {
	cfg     *runConfig
	rep     *report
	kernels []*kernel
	ops     []fop
}

func runFixpointBatch(cfg *runConfig, rep *report) error {
	w := &fixpointBatch{cfg: cfg, rep: rep}
	rep.env["engine"] = "memory"
	rep.env["clients"] = 1
	if err := repeatSetup(rep, setupRepeats, w.setup, func() {}); err != nil {
		return err
	}
	var mix []string
	for _, k := range w.kernels {
		mix = append(mix, fmt.Sprintf("%s x%d", k.name, k.weight))
	}
	rep.env["mix"] = "per round: " + strings.Join(mix, ", ")
	if err := w.buildOracle(); err != nil {
		return err
	}
	selfCheck(rep, func(c *checker, corrupt bool) { w.run(c, w.ops[0], nil, nil, corrupt) })
	if !cfg.trace {
		rec := &opRecord{}
		start := time.Now()
		deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		for i := 0; time.Now().Before(deadline); i++ {
			op := w.ops[i%len(w.ops)]
			rec.add(w.run(&rep.chk, op, nil, nil, false), op.k, 0)
		}
		rec.wall = time.Since(start)
		rep.setDurations(rec.lat, rec.wall)
		var names []string
		for _, k := range w.kernels {
			names = append(names, k.name)
		}
		rec.print(names, "eval")
		rec = nil // the benchmark's own records are not the system's memory
		rep.e2e["live_heap_mb"] = liveHeapMB()
		return nil
	}
	_, err := tracedReplay(cfg, rep, &fixpointReplay{w: w}, 0.5*cfg.seconds, w.parseProbes)
	return err
}

func (w *fixpointBatch) setup() error {
	rng := rand.New(rand.NewSource(int64(w.cfg.seed)))
	w.kernels = fixpointKernels()
	for _, k := range w.kernels {
		prog, err := idlog.Parse(k.src)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		db, err := database(k.facts(rng))
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		k.prog, k.db, k.outputs = prog, db, prog.OutputPredicates()
		sort.Strings(k.outputs)
		var opts []idlog.Option
		if k.seeded {
			opts = append(opts, idlog.WithSeed(seedFor(w.cfg.seed, 0)))
		}
		if _, err := prog.Eval(db, opts...); err != nil { // warm-up
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	var weights []int
	for _, k := range w.kernels {
		weights = append(weights, k.weight)
	}
	w.ops = w.ops[:0]
	for len(w.ops) < 20000 {
		for _, ki := range blockPlan(rng, weights) {
			op := fop{k: ki}
			if w.kernels[ki].seeded {
				op.seed = seedFor(w.cfg.seed, rng.Intn(fixpointSeedPool))
			}
			w.ops = append(w.ops, op)
		}
	}
	return nil
}

// fingerprint renders a model's output relations canonically.
func (k *kernel) fingerprint(res *idlog.Result) string {
	var b strings.Builder
	for _, p := range k.outputs {
		fp := "absent"
		if r := res.Relation(p); r != nil {
			fp = r.Fingerprint()
		}
		fmt.Fprintf(&b, "%s=%s;", p, fp)
	}
	return b.String()
}

// buildOracle evaluates every (kernel, seed) the stream uses with the
// plain configuration.
func (w *fixpointBatch) buildOracle() error {
	for _, k := range w.kernels {
		k.want = map[uint64]string{}
		seeds := []uint64{0}
		if k.seeded {
			seeds = seeds[:0]
			for i := 0; i < fixpointSeedPool; i++ {
				seeds = append(seeds, seedFor(w.cfg.seed, i))
			}
		}
		for _, s := range seeds {
			opts := plainOpts
			if k.seeded {
				opts = append([]idlog.Option{idlog.WithSeed(s)}, plainOpts...)
			}
			res, err := k.prog.Eval(k.db, opts...)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", k.name, err)
			}
			k.want[s] = k.fingerprint(res)
		}
	}
	return nil
}

// run evaluates one operation with the shipped defaults (plus the
// caller's sampling seed), returning its milliseconds, and checks the
// model against the oracle.
func (w *fixpointBatch) run(c *checker, op fop, tr *tracer, st *layerStats, corrupt bool) float64 {
	k := w.kernels[op.k]
	var opts []idlog.Option
	if k.seeded {
		opts = append(opts, idlog.WithSeed(op.seed))
	}
	var res *idlog.Result
	var err error
	t := time.Now()
	if st == nil {
		res, err = k.prog.Eval(k.db, opts...)
	} else {
		tr.beginOp(k.name)
		res, err = st.eval(tr, k.prog, k.db, opts...)
		tr.end()
	}
	ms := msSince(t)
	want := k.want[op.seed]
	if corrupt {
		want += "corrupted"
	}
	c.check(err == nil && k.fingerprint(res) == want, "%s seed %d: error %v or model differs from the oracle", k.name, op.seed, err)
	return ms
}

// parseProbes times the parser and analysis layers on every kernel's
// source (the batch parses once, in setup).
func (w *fixpointBatch) parseProbes(tr *tracer) {
	for rep := 0; rep < 5; rep++ {
		for _, k := range w.kernels {
			tr.beginOp("setup-parse")
			tr.begin("parser.parse")
			p, err := parser.Program(k.src)
			tr.end()
			if err == nil {
				tr.begin("analysis.analyze")
				_, _ = analysis.Analyze(p) // the kernels are known-good; only the time matters
				tr.end()
			}
			tr.end()
		}
	}
}

type fixpointReplay struct{ w *fixpointBatch }

func (r *fixpointReplay) reset() error { return nil }

func (r *fixpointReplay) op(i int, tr *tracer, st *layerStats) float64 {
	return r.w.run(&r.w.rep.chk, r.w.ops[i%len(r.w.ops)], tr, st, false)
}
