package core

import (
	"fmt"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file implements the join executor: a pipeline of composable
// get-next cursors, one per body literal, driven by an explicit depth
// loop. The pipeline is single-use — open positions a cursor under the
// current bindings, next pulls one satisfying tuple, and exhaustion pops
// back to the previous literal — so per-round intermediates are never
// materialized: a body instantiation lives only as the environment
// slots currently pinned by the cursor stack.
//
// open snapshots what it enumerates at the moment the literal is
// reached (the tuple range for scans, the index's position run for
// probes, the builtin's solutions) and counts scan and probe snapshot
// ranges into Stats.TuplesScanned up front; next yields in position
// order. A scan over an in-memory relation reads the relation's own
// tuple slice in place; a disk-backed one streams through a chunked
// buffer. Each candidate tuple is evaluated with two pushdowns:
//   - Selection pushdown: repeated-variable checks (cl.checks) compare
//     positions of the candidate tuple directly, so rejected tuples
//     never surface to the join loop.
//   - Projection pushdown: only live binds (cl.binds) are stored into
//     the environment; a variable read by nothing downstream costs
//     nothing per tuple.
// Because of projection pushdown the environment is sparse: provenance
// capture (Trace) reads each ground body fact back from the cursors
// instead (see recordProvenance).

// scanChunk is the scan cursor's refill granularity over disk-backed
// relations: small enough to stay resident in cache, large enough to
// amortize the per-call cost of Relation.Scan over segment blocks.
const scanChunk = 256

type iterKind uint8

const (
	iterScan iterKind = iota
	iterProbe
	iterOnce // negation (relational or builtin): yields at most once
	iterBuiltin
)

// litIter is one literal's cursor. The zero value is open-able; cursors
// live in compiledClause.iters scratch and are re-opened in place, so a
// clause walk allocates nothing but its environment.
type litIter struct {
	kind iterKind
	cl   *compiledLit
	rel  *relation.Relation

	// Scan state: the window being read (the in-memory relation's own
	// tuple slice, or buf) and the read index in it, then the next
	// refill position and snapshot end of a disk-backed scan, whose
	// chunks land in buf (retained across opens for its capacity).
	tuples  []value.Tuple
	tIdx    int
	pos, hi int
	buf     []value.Tuple

	// Probe state: the index's position run and snapshot length.
	positions []int32
	idx, n    int

	// Builtin state.
	sols   [][]value.Value
	solIdx int

	// iterOnce state: whether the single yield remains and succeeds.
	armed bool
}

// checksPass evaluates the repeated-variable selections against one
// candidate tuple (or builtin solution), no environment involved.
func checksPass(checks []checkPair, t []value.Value) bool {
	for _, c := range checks {
		if !t[c.pos].Equal(t[c.first]) {
			return false
		}
	}
	return true
}

// openIter positions the cursor for the literal at depth under the
// current environment.
func (rn *runner) openIter(cc *compiledClause, it *litIter, depth int, env []value.Value, deltaPos int, deltaRel *relation.Relation) error {
	cl := &cc.lits[depth]
	it.cl = cl
	if cl.builtin != nil {
		args, mask := cl.argsBuf, cl.maskBuf
		for i, a := range cl.args {
			switch a.kind {
			case argConst:
				args[i] = a.val
				mask[i] = true
			case argBound:
				args[i] = env[a.slot]
				mask[i] = true
			default:
				args[i] = value.Value{}
				mask[i] = false
			}
		}
		sols, err := cl.builtin.Solve(args, mask)
		if err != nil {
			return fmt.Errorf("clause %s: %w", cc.src.Source, err)
		}
		if cl.neg {
			it.kind = iterOnce
			it.armed = len(sols) == 0
			return nil
		}
		it.kind = iterBuiltin
		it.sols, it.solIdx = sols, 0
		return nil
	}
	rel, err := rn.resolve(cl)
	if err != nil {
		return err
	}
	if depth == deltaPos {
		rel = deltaRel
	}
	if cl.neg {
		// Negated literals are fully bound (safety), so probeArgs covers
		// every position and keyBuf has full arity.
		t := cl.keyBuf
		if len(t) != len(cl.args) {
			t = make(value.Tuple, len(cl.args))
		}
		for i, a := range cl.args {
			if a.kind == argConst {
				t[i] = a.val
			} else {
				t[i] = env[a.slot]
			}
		}
		it.kind = iterOnce
		it.armed = !rel.Contains(t)
		return nil
	}
	it.rel = rel
	if len(cl.probeCols) == 0 {
		hi := rel.Len()
		rn.stats.TuplesScanned += hi
		it.kind = iterScan
		it.tIdx = 0
		if rel.SourceLen() == 0 {
			// In memory: read the [0, hi) snapshot of the tuple slice in
			// place. Later inserts append past hi and never touch it.
			it.tuples = rel.Tuples()[:hi:hi]
			it.pos, it.hi = hi, hi
		} else {
			it.tuples = it.buf[:0]
			it.pos, it.hi = 0, hi
		}
		return nil
	}
	key := cl.keyBuf
	for i, a := range cl.probeArgs {
		if a.kind == argConst {
			key[i] = a.val
		} else {
			key[i] = env[a.slot]
		}
	}
	// The positions slice is a read-only snapshot of the index's run:
	// inserts during iteration (head derivations into the probed
	// relation) append past its length or move the run elsewhere, so
	// iteration stays well-defined.
	positions := rel.Probe(cl.probeCols, key)
	n := len(positions)
	rn.stats.TuplesScanned += n
	it.kind = iterProbe
	it.positions, it.idx, it.n = positions, 0, n
	return nil
}

// nextIter pulls the cursor's next satisfying tuple, binding its live
// variables into env, and reports whether one was produced.
func (rn *runner) nextIter(it *litIter, env []value.Value) bool {
	cl := it.cl
	switch it.kind {
	case iterOnce:
		ok := it.armed
		it.armed = false
		return ok
	case iterBuiltin:
		for it.solIdx < len(it.sols) {
			sol := it.sols[it.solIdx]
			it.solIdx++
			if !checksPass(cl.checks, sol) {
				continue
			}
			for _, b := range cl.binds {
				env[b.slot] = sol[b.pos]
			}
			return true
		}
		return false
	case iterProbe:
		for it.idx < it.n {
			t := it.rel.At(int(it.positions[it.idx]))
			it.idx++
			if !checksPass(cl.checks, t) {
				continue
			}
			for _, b := range cl.binds {
				env[b.slot] = t[b.pos]
			}
			return true
		}
		return false
	default: // iterScan
		for {
			if it.tIdx < len(it.tuples) {
				t := it.tuples[it.tIdx]
				it.tIdx++
				if !checksPass(cl.checks, t) {
					continue
				}
				for _, b := range cl.binds {
					env[b.slot] = t[b.pos]
				}
				return true
			}
			if it.pos >= it.hi {
				return false
			}
			it.refill()
		}
	}
}

// refill advances a disk-backed scan cursor by one chunk. Scan streams
// block-at-a-time, so a chunked scan never materializes the relation
// in memory.
func (it *litIter) refill() {
	end := it.pos + scanChunk
	if end > it.hi {
		end = it.hi
	}
	it.buf = it.buf[:0]
	it.rel.Scan(it.pos, end, func(_ int, t value.Tuple) bool {
		it.buf = append(it.buf, t)
		return true
	})
	it.tuples, it.tIdx = it.buf, 0
	it.pos = end
}

// walk runs the executor — an explicit open/next/pop loop over the
// cursor stack — in a caller-provided environment. The environment
// may arrive pre-seeded (head-bound rederivation probes seed the head
// slots from a candidate tuple) and may be reused across walks without
// clearing: compilation guarantees every slot read was bound earlier in
// the same walk or by the seed.
func (rn *runner) walk(cc *compiledClause, env []value.Value, deltaPos int, deltaRel *relation.Relation) error {
	last := len(cc.lits) - 1
	if last < 0 {
		return rn.deriveHead(cc, env)
	}
	if cc.iters == nil {
		cc.iters = make([]litIter, len(cc.lits))
	}
	iters := cc.iters
	if err := rn.openIter(cc, &iters[0], 0, env, deltaPos, deltaRel); err != nil {
		return err
	}
	depth := 0
	for depth >= 0 {
		if !rn.nextIter(&iters[depth], env) {
			depth--
			continue
		}
		if depth == last {
			if err := rn.deriveHead(cc, env); err != nil {
				return err
			}
			continue
		}
		depth++
		if err := rn.openIter(cc, &iters[depth], depth, env, deltaPos, deltaRel); err != nil {
			return err
		}
	}
	return nil
}

// deriveHead assembles the candidate head tuple in scratch and hands it
// to the derive hook.
func (rn *runner) deriveHead(cc *compiledClause, env []value.Value) error {
	head := cc.headBuf
	for i, a := range cc.headArgs {
		if a.kind == argConst {
			head[i] = a.val
		} else {
			head[i] = env[a.slot]
		}
	}
	return rn.derive(cc, env, head)
}
