package core

import (
	"fmt"
	"runtime"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// Options configures a single evaluation run.
type Options struct {
	// Oracle chooses ID-functions; nil defaults to relation.SortedOracle,
	// giving a deterministic canonical run.
	Oracle relation.Oracle
	// Naive disables semi-naive (delta) evaluation; each fixpoint round
	// re-evaluates every clause against the full relations. Used by the
	// E6 ablation benchmark.
	Naive bool
	// MaxDerivations aborts evaluation once the total number of body
	// instantiations exceeds this bound (0 = unlimited); a safety valve
	// for generated programs. Ignored when Guard is set — fold the
	// budget into the guard's limits instead.
	MaxDerivations int
	// Trace records, for every derived tuple, the clause and ground
	// body facts of its first derivation, enabling Result.Explain.
	// Costs memory proportional to the model. Trace forces sequential
	// evaluation (provenance capture is inherently ordered), the
	// analysis body order (planner off) and bypasses the plan cache, so
	// the recorded first derivations do not depend on scheduling or
	// cardinalities.
	Trace bool
	// NoPlanner disables the cost-based join planner: clause bodies are
	// evaluated in the analysis safety order and semi-naive deltas are
	// substituted in place instead of rotated to depth 0. The model is
	// identical either way (the planner only picks among safe orders);
	// this is the escape hatch and the ablation baseline.
	NoPlanner bool
	// PlanCache, when non-nil, memoizes compiled stratum plans across
	// evaluations keyed by (program, database version, planner toggle);
	// see PlanCache for the invalidation and correctness contract. A
	// fully successful run publishes its plans; a hit skips cardinality
	// estimation and stratum compilation. Trace runs bypass the cache.
	PlanCache *PlanCache
	// Parallelism bounds the worker pool of the semi-naive fixpoint: a
	// fanned-out round is sharded across up to this many goroutines and
	// merged through a deterministic ordered reducer, so answer sets and
	// ID assignment are byte-identical to a sequential run. An explicit
	// value above 1 fans every round out (see fansOut). Zero (the zero
	// value) is the auto configuration: rounds run inline unless
	// Partitions above 1 forces fan-out, which then uses
	// DefaultParallelism() workers. 1, values < 0, and Naive or Trace
	// runs evaluate sequentially.
	Parallelism int
	// Partitions is the hash-partition fan-out of partition-parallel
	// evaluation: partitionable delta units (see plan.go choosePartition)
	// of a fanned-out round radix-partition their delta and probe
	// relation by the join key into this many partitions, each evaluated
	// as one task with partition-local probe indexes. Zero follows an
	// explicit Parallelism above 1, else resolves to 1; an explicit value
	// above 1 forces every round to fan out. 1 disables partitioning (the
	// differential twin); values above maxPartitions clamp. Answer sets,
	// ID assignment, and fingerprints are byte-identical at every
	// setting. Partitioning applies only with the planner on (delta-first
	// variants); Naive and Trace runs ignore it.
	Partitions int
	// Guard governs the run (cancellation, deadlines, budgets, fault
	// injection). Nil builds a fresh guard carrying only
	// MaxDerivations. An Enumerate walk shares one guard across its
	// runs, so budgets span the whole walk.
	Guard *guard.Guard
}

func (o Options) oracle() relation.Oracle {
	if o.Oracle == nil {
		return relation.SortedOracle{}
	}
	return o.Oracle
}

func (o Options) guard() *guard.Guard {
	if o.Guard != nil {
		return o.Guard
	}
	return guard.New(nil, guard.Limits{MaxDerivations: o.MaxDerivations})
}

// Eval computes the perfect model of the analyzed program over db for
// the ID-function assignment drawn from opts.Oracle (Theorem 1: for a
// fixed assignment the stratified program has a unique perfect model,
// computed stratum by stratum as an iterated minimal model).
//
// Eval degrades gracefully under governance: when the run's guard trips
// (cancellation, deadline, budget) the partially computed model is
// returned alongside the typed error, marked Incomplete with
// CompletedStrata set. Because strata are evaluated in dependency order
// and negation only consults earlier strata, every tuple of a partial
// model has a sound derivation — the partial model is a prefix of the
// perfect model for the same oracle. Engine panics are recovered and
// converted to guard.Internal errors carrying the stratum and clause
// under evaluation.
func Eval(info *analysis.Info, db *Database, opts Options) (res *Result, err error) {
	g := opts.guard()
	e := &engine{info: info, opts: opts, g: g, governed: g.Active(),
		work: map[string]*relation.Relation{}, idrels: map[string]*relation.Relation{}}
	if opts.Trace {
		e.prov = map[string]provEntry{}
	}
	defer func() {
		if r := recover(); r != nil {
			ierr := guard.Errorf(guard.Internal, g.Op(),
				"panic in stratum %d (clause %s): %v", g.Stratum(), e.curClause, r)
			res, err = e.partial(ierr), ierr
		}
	}()
	// Input relations: use the database's, or empty ones when absent.
	for p := range info.EDB {
		r := db.Relation(p)
		if r == nil {
			r = relation.New(p, info.Arity[p])
		} else if r.Arity() != info.Arity[p] {
			return nil, fmt.Errorf("eval: input relation %s has arity %d, program expects %d", p, r.Arity(), info.Arity[p])
		}
		e.work[p] = r
	}
	for p := range info.IDB {
		e.work[p] = relation.New(p, info.Arity[p])
	}
	// Consult the plan cache: a hit hands each stratum a fresh clone of
	// its cached plan; a miss collects this run's plans for publication.
	e.plans = make([]*stratumPlan, len(info.Strata))
	pc := opts.PlanCache
	if opts.Trace {
		pc = nil
	}
	var pcKey planKey
	if pc != nil {
		pcKey = planKey{info: info, dbVersion: db.Version(), planner: opts.planner()}
		if cached, ok := pc.get(pcKey); ok {
			for i := range cached {
				e.plans[i] = cached[i].clone()
			}
			pc = nil // already published; this run only consumes
		}
	}
	for i, s := range info.Strata {
		if e.governed {
			if err := e.g.StartStratum(i); err != nil {
				return e.partial(err), err
			}
		}
		if err := e.evalStratum(i, s); err != nil {
			return e.partial(err), err
		}
		e.completed = i + 1
	}
	if pc != nil {
		// Publish only on full success: a tripped run may hold plans for
		// a prefix of the strata.
		for _, sp := range e.plans {
			sp.dropScratch()
		}
		pc.put(pcKey, e.plans)
	}
	return &Result{rels: e.work, idrels: e.idrels, Stats: e.stats, prov: e.prov,
		CompletedStrata: e.completed}, nil
}

type engine struct {
	info     *analysis.Info
	opts     Options
	g        *guard.Guard
	governed bool
	work     map[string]*relation.Relation
	idrels   map[string]*relation.Relation
	stats    Stats
	prov     map[string]provEntry
	// plans holds the per-stratum compiled plans — cache-hit clones or
	// the plans compiled by this run (nil slots compile on demand; a nil
	// slice, as in EvalStrata, disables collection entirely).
	plans []*stratumPlan
	// completed counts fully evaluated strata; curClause is the source
	// of the clause being instantiated (panic/error context).
	completed int
	curClause string
	// gslack and gused amortize guard consultations on the derivation
	// hot path: gslack derivations may still run under the current
	// DerivationGrant, gused have run and await settlement.
	gslack int
	gused  int
}

// partial packages the work done so far as an Incomplete result with
// the triggering error attached.
func (e *engine) partial(cause error) *Result {
	return &Result{rels: e.work, idrels: e.idrels, Stats: e.stats, prov: e.prov,
		Incomplete: true, CompletedStrata: e.completed, Err: cause}
}

func (e *engine) evalStratum(si int, s *analysis.Stratum) error {
	// Materialize the ID-relations this stratum references; every base
	// relation is complete by now (stratification guarantees it).
	for _, need := range s.IDNeeds {
		base, ok := e.work[need.Pred]
		if !ok {
			return fmt.Errorf("eval: ID-relation over unknown predicate %s", need.Pred)
		}
		if e.governed {
			if ferr := e.g.TakeOracleFault(); ferr != nil {
				return guard.WrapErr(guard.Internal, e.g.Op(), ferr,
					fmt.Sprintf("oracle failed materializing %s", need.Key()))
			}
		}
		idr, err := relation.MaterializeIDBounded(base, need.Key(), need.Group, e.opts.oracle(), need.Bound)
		if err != nil {
			return err
		}
		e.idrels[need.Key()] = idr
		e.stats.IDRelations++
		// ID-relation rows count against the tuple budget at block
		// granularity (the block is already materialized; derived
		// tuples below are exact).
		if e.governed {
			if err := e.g.TryTuples(idr.Len()); err != nil {
				return err
			}
		}
	}

	inStratum := map[string]bool{}
	for _, p := range s.Preds {
		inStratum[p] = true
	}
	// Compile the stratum's evaluation plan: with the planner on, bodies
	// are selectivity-ordered under a cardinality snapshot taken now
	// (earlier strata are complete, ID-relations just materialized) and
	// recursive clauses get delta-first variants. A plan-cache hit
	// pre-populated e.plans[si] and skips compilation entirely.
	var sp *stratumPlan
	if e.plans != nil {
		sp = e.plans[si]
	}
	if sp == nil {
		card := stratumCard(s, inStratum, e.work, e.idrels)
		var err error
		sp, err = compileStratumPlan(s, func(p string) bool { return inStratum[p] }, card, !e.opts.planner())
		if err != nil {
			return err
		}
		if e.plans != nil {
			e.plans[si] = sp
		}
	}
	if e.opts.Naive {
		return e.naiveFixpoint(sp.all[:sp.nseed])
	}
	return e.fixpoint(s, sp)
}

// maxAutoParallelism caps the GOMAXPROCS-derived default worker count:
// beyond it the single-threaded merge phase dominates and extra
// workers only contend. Explicit Parallelism settings are not clamped.
const maxAutoParallelism = 8

// maxPartitions caps the partition fan-out: each partitioned unit pays
// one task and one position list per partition and round, so an
// absurd setting would drown the join work in bookkeeping.
const maxPartitions = 64

// DefaultParallelism is the worker count of fanned-out rounds when
// Options.Parallelism is unset and Partitions above 1 forces fan-out:
// runtime.GOMAXPROCS(0) clamped to maxAutoParallelism.
func DefaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxAutoParallelism {
		n = maxAutoParallelism
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EffectiveParallelism resolves the worker count of these Options'
// fanned-out rounds (≥ 1): the explicit Parallelism, or
// DefaultParallelism() when unset.
func (o Options) EffectiveParallelism() int {
	n := o.Parallelism
	if n == 0 {
		n = DefaultParallelism()
	}
	if n > 1 {
		return n
	}
	return 1
}

// EffectivePartitions resolves the partition fan-out of these Options'
// fanned-out rounds (≥ 1): unset follows an explicit Parallelism above
// 1, so forced parallel runs partition by default while the auto
// configuration, which runs inline, stays unpartitioned; explicit
// values clamp to maxPartitions.
func (o Options) EffectivePartitions() int {
	n := o.Partitions
	if n == 0 {
		n = o.Parallelism
	}
	if n > maxPartitions {
		n = maxPartitions
	}
	if n < 1 {
		n = 1
	}
	return n
}

// fansOut reports whether the fixpoint fans its rounds out to the
// worker pool: only when an explicit Parallelism or Partitions above 1
// asks for it. The auto configuration runs every round inline: on a
// 2-core x86-64 host, forced 2-way fan-out cost 1.06x to 1.7x inline
// evaluation per unit of work on TC over chains, grids and random
// graphs and on 3-hop joins, at every round size measured (up to about
// 10^6 scanned plus derived tuples), so no measured workload gains from
// fanning out by default. Trace runs stay inline: provenance capture is
// inherently ordered.
func (e *engine) fansOut() bool {
	o := e.opts
	return !o.Trace && (o.Parallelism > 1 || o.Partitions > 1)
}

// workers resolves the effective parallelism (≥ 1).
func (e *engine) workers() int { return e.opts.EffectiveParallelism() }

// partitions resolves the effective partition fan-out (≥ 1).
func (e *engine) partitions() int { return e.opts.EffectivePartitions() }

// naiveFixpoint repeatedly evaluates every clause against the full
// relations until no clause derives a new tuple.
func (e *engine) naiveFixpoint(clauses []*compiledClause) error {
	for {
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		e.stats.Iterations++
		inserted := 0
		for _, cc := range clauses {
			n, err := e.run(cc, -1, nil, nil, e.work[cc.headPred])
			if err != nil {
				return err
			}
			inserted += n
		}
		if inserted == 0 {
			return nil
		}
	}
}

// fixpoint evaluates stratum s semi-naively. A seed round runs every
// clause once against the full relations; a recursive stratum then runs
// rounds of its recursive clauses' delta units — one unit per recursive
// body position, the delta position reading the previous round's new
// tuples (through the planner's delta-first variant clause when there
// is one, in place otherwise) — until a round derives nothing new.
//
// Rounds run in one of two ways (see fansOut):
//   - inline: every unit runs through the sequential derive hook, which
//     inserts at once, so later units of the round already see the
//     round's new tuples;
//   - fanned out: the units become tasks on the worker pool
//     (eval_parallel.go), which read the round-start relations, and the
//     ordered merge inserts their derivations afterwards.
//
// Both are sound semi-naive steps over the same delta — every tuple a
// round inserts joins the next round's delta — so they reach the same
// fixpoint, and eval_parallel.go explains why the answers and ID
// assignment are identical too.
func (e *engine) fixpoint(s *analysis.Stratum, sp *stratumPlan) error {
	var fan *pool
	if e.fansOut() {
		fan = e.newPool(sp)
	}
	clauses := sp.all[:sp.nseed]
	e.stats.Iterations++
	// A non-recursive stratum reaches fixpoint in its seed round and
	// skips the delta bookkeeping entirely. Deltas are append-only: the
	// derive hook and the merge feed them exactly the tuples the full
	// relation reported new, so they need no duplicate checking and skip
	// the primary hash table entirely.
	var delta map[string]*relation.Relation
	if s.Recursive {
		delta = map[string]*relation.Relation{}
		for _, p := range s.Preds {
			delta[p] = relation.NewDelta(p, e.work[p].Arity(), 0)
		}
	}
	if fan != nil {
		if err := fan.seedRound(sp.nseed, delta); err != nil {
			return err
		}
	} else {
		for _, cc := range clauses {
			if _, err := e.run(cc, -1, nil, delta[cc.headPred], e.work[cc.headPred]); err != nil {
				return err
			}
		}
	}
	if !s.Recursive {
		return nil
	}
	var recursive []int
	for ci := range clauses {
		if len(sp.units[ci]) > 0 {
			recursive = append(recursive, ci)
		}
	}
	for {
		total := 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 || len(recursive) == 0 {
			return nil
		}
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		e.stats.Iterations++
		next := map[string]*relation.Relation{}
		for _, p := range s.Preds {
			// The previous round's delta size is the best available prior
			// for this round's.
			next[p] = relation.NewDelta(p, e.work[p].Arity(), delta[p].Len())
		}
		if fan != nil {
			if err := fan.deltaRound(sp, recursive, delta, next); err != nil {
				return err
			}
		} else {
			for _, ci := range recursive {
				for _, u := range sp.units[ci] {
					// Substitute the delta relation at exactly one recursive
					// position; other positions read the full relations
					// (which already include the delta).
					cc := sp.all[u.idx]
					d := delta[cc.lits[u.pos].pred]
					if d == nil || d.Len() == 0 {
						continue
					}
					if _, err := e.run(cc, u.pos, d, next[cc.headPred], e.work[cc.headPred]); err != nil {
						return err
					}
				}
			}
		}
		delta = next
	}
}

// resolve returns the relation a compiled literal reads.
func (e *engine) resolve(cl *compiledLit) (*relation.Relation, error) {
	if cl.isID {
		r, ok := e.idrels[cl.idKey]
		if !ok {
			return nil, fmt.Errorf("eval: ID-relation %s not materialized", cl.idKey)
		}
		return r, nil
	}
	r, ok := e.work[cl.pred]
	if !ok {
		return nil, fmt.Errorf("eval: unknown predicate %s", cl.pred)
	}
	return r, nil
}

// run evaluates cc against the current relations, with the literal at
// deltaPos (-1 for none) reading deltaRel instead of its full relation —
// one semi-naive pass. New head tuples are inserted into full; when
// deltaSink is non-nil they are also added there. It returns the number
// of new tuples.
func (e *engine) run(cc *compiledClause, deltaPos int, deltaRel, deltaSink, full *relation.Relation) (int, error) {
	inserted := 0
	e.curClause = cc.srcText
	rn := runner{resolve: e.resolve, stats: &e.stats}
	rn.derive = func(cc *compiledClause, env []value.Value, head value.Tuple) error {
		if e.governed {
			// Amortized governance: consult the guard only when the
			// current grant is spent; in between, one decrement.
			if e.gslack == 0 {
				n, err := e.g.DerivationGrant(e.gused, cc.srcText)
				e.gused = 0
				if err != nil {
					return err
				}
				e.gslack = n
			}
			e.gslack--
			e.gused++
		}
		e.stats.Derivations++
		// At the tuple limit, reject a genuinely new tuple before
		// storing it so a tripped run holds exactly the budget.
		// Duplicates fall through: they cost no memory and
		// InsertShared ignores them.
		if e.governed && e.g.AtTupleLimit() && !full.Contains(head) {
			return e.g.TryTuples(1)
		}
		stored, err := full.InsertShared(head)
		if err != nil {
			return err
		}
		if stored != nil {
			if e.governed {
				if err := e.g.TryTuples(1); err != nil {
					return err
				}
			}
			inserted++
			e.stats.Inserted++
			e.recordProvenance(cc, env, stored)
			if deltaSink != nil {
				deltaSink.Append(stored)
			}
		}
		return nil
	}
	err := rn.run(cc, deltaPos, deltaRel, 0, -1)
	if e.governed && e.gused > 0 {
		// Settle the outstanding amortized batch so the guard is exact at
		// clause boundaries. Without this, derivations run under the last
		// grant were never accounted: Usage underreported, and a guard
		// shared across runs (Enumerate builds a fresh engine per run, so
		// gused restarts at zero) could overshoot MaxDerivations by up to
		// one CheckInterval batch per run.
		e.g.Settle(e.gused)
		e.gused = 0
	}
	return inserted, err
}

// runner executes the join walk of one clause. There is exactly one per
// goroutine: the sequential engine builds one per clause run, and every
// parallel worker owns one bound to its private compiled-clause copies
// (the compiled scratch buffers are single-threaded by design). The
// walk is pure enumeration — each complete body instantiation hands the
// candidate head tuple (scratch; clone to retain) to the derive hook,
// which carries all mutable policy: governance, dedup, insertion. The
// resolve hook maps a compiled literal to the relation it reads, so the
// same walk serves full evaluation (engine state) and incremental
// maintenance (a view's relation maps).
type runner struct {
	resolve func(cl *compiledLit) (*relation.Relation, error)
	stats   *Stats
	derive  func(cc *compiledClause, env []value.Value, head value.Tuple) error
	// partRel, when non-nil, substitutes for the relation the literal
	// at depth partDepth reads — the partition-local probe relation of
	// a partitioned task (eval_parallel.go). partDepth is never 0 in a
	// partitioned task (depth 0 is the delta), so it cannot collide
	// with the delta substitution.
	partRel   *relation.Relation
	partDepth int
}

// run walks cc with the delta relation substituted at deltaPos (-1 for
// none). lo/hi restrict the depth-0 literal's enumeration range to
// [lo, hi) — the parallel shard bounds; hi = -1 means unrestricted.
func (rn *runner) run(cc *compiledClause, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	env := make([]value.Value, cc.nslots)
	return rn.walk(cc, env, deltaPos, deltaRel, lo, hi)
}
