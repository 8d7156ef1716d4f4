package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"idlog"
)

// disk-cold: one library caller runs prepared 2-hop and 3-hop goals
// against a disk-resident sparse graph of about 500k edges, under a
// block-cache budget far below the decoded relation. Start nodes are
// skewed: a small hot set whose blocks fit in the cache, and a uniform
// tail that misses it.
const (
	diskNodes     = 166667 // × diskDegree ≈ 500k edges
	diskDegree    = 3
	diskSpread    = 256 // out-edges land within ±diskSpread node ids
	diskHot       = 64  // hot start nodes: ids [0, diskHot)
	diskCache     = 512 << 10
	diskPrepCache = 256 // prepared goals the caller keeps, like idlogd
	// diskSetupRepeats is lower than the other workloads' because one
	// bulk load takes over a second.
	diskSetupRepeats = 3
)

// Goal forms, their counts per block of 10 operations, and the hot/tail
// split per block of 10.
var (
	diskForms     = []string{"e(%d, Y), e(Y, Z)", "e(%d, Y), e(Y, Z), e(Z, W)"}
	diskFormNames = []string{"2-hop", "3-hop"}
	diskFormMix   = []int{3, 7}
	diskHotMix    = []int{8, 2} // hot, tail
)

// dop is one disk-cold operation: a goal form and its start node.
type dop struct {
	form int
	node int
}

type diskCold struct {
	cfg  *runConfig
	rep  *report
	prog *idlog.Program // no rules: the goals read the EDB directly
	db   *idlog.Database
	dir  string

	openMS, bulkRate, amp []float64
}

func runDiskCold(cfg *runConfig, rep *report) error {
	w := &diskCold{cfg: cfg, rep: rep}
	rep.env["engine"] = "disk"
	rep.env["cache_bytes"] = diskCache
	rep.env["clients"] = 1
	rep.env["mix"] = fmt.Sprintf("per 10 ops: %v of %v; %d hot (ids < %d) and %d uniform starts", diskFormMix, diskFormNames, diskHotMix[0], diskHot, diskHotMix[1])
	prog, err := idlog.Parse("")
	if err != nil {
		return err
	}
	w.prog = prog
	idlog.SetDiskCacheBytes(diskCache)
	defer w.teardown() // idempotent: also cleans up a failed set-up
	if err := repeatSetup(rep, diskSetupRepeats, w.setup, w.teardown); err != nil {
		return err
	}
	rep.layer["storage.open_ms"] = medianOf(w.openMS)
	rep.layer["storage.bulk_facts_per_s"] = medianOf(w.bulkRate)
	rep.layer["storage.bytes_per_fact_byte"] = medianOf(w.amp)
	adj := diskGraph(cfg.seed)
	selfCheck(rep, func(c *checker, corrupt bool) {
		_, ans := w.run(dop{form: 1, node: 5}, newLRU[*idlog.PreparedQuery](1), nil, nil)
		w.verify(c, adj, []diskAnswer{ans}, corrupt)
	})
	adj = nil // the oracle regenerates the graph after the measured phase

	if !cfg.trace {
		ops := newDiskStream(cfg.seed)
		cache := newLRU[*idlog.PreparedQuery](diskPrepCache)
		h0, m0, _ := idlog.DiskCacheStats()
		rec := &opRecord{}
		var pend []diskAnswer
		start := time.Now()
		deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			op := ops.next()
			ms, ans := w.run(op, cache, nil, nil)
			rec.add(ms, op.form, 0)
			pend = append(pend, ans)
		}
		rec.wall = time.Since(start)
		h1, m1, _ := idlog.DiskCacheStats()
		rep.setDurations(rec.lat, rec.wall)
		rec.print(diskFormNames, "read")
		fmt.Printf("# block cache: hit ratio %.4f, %.3f misses per read\n",
			ratio(float64(h1-h0), float64(h1-h0+m1-m0)), ratio(float64(m1-m0), float64(len(rec.lat))))
		w.verify(&rep.chk, diskGraph(cfg.seed), pend, false)
		rec, pend = nil, nil // the benchmark's own records are not the system's memory
		rep.e2e["live_heap_mb"] = liveHeapMB()
		return nil
	}
	r := &diskReplay{w: w}
	_, err = tracedReplay(cfg, rep, r, 0.5*cfg.seconds)
	if err != nil {
		return err
	}
	rep.layer["segment.cache_hit_ratio"] = ratio(float64(r.hits), float64(r.hits+r.misses))
	rep.layer["segment.misses_per_op"] = ratio(float64(r.misses), float64(r.n))
	return nil
}

// newDiskStream starts the seeded operation stream.
func newDiskStream(seed uint64) *stream[dop] {
	temps := rand.New(rand.NewSource(int64(seed) + 2))
	var pending []int
	return newStream(int64(seed), diskFormMix, func(rng *rand.Rand, form int) []dop {
		if len(pending) == 0 {
			pending = blockPlan(temps, diskHotMix)
		}
		hot := pending[0] == 0
		pending = pending[1:]
		op := dop{form: form}
		if hot {
			op.node = rng.Intn(diskHot)
		} else {
			op.node = rng.Intn(diskNodes)
		}
		return []dop{op}
	})
}

// diskGraph generates the seeded graph: node i's out-edges go to nodes
// within ±diskSpread of i (wrapping), so a start node's neighbourhood
// sits in nearby segment blocks.
func diskGraph(seed uint64) [][]int32 {
	rng := rand.New(rand.NewSource(int64(seed)))
	adj := make([][]int32, diskNodes)
	for i := range adj {
		out := make([]int32, 0, diskDegree)
	next:
		for len(out) < diskDegree {
			j := int32((i + rng.Intn(2*diskSpread+1) - diskSpread + diskNodes) % diskNodes)
			for _, k := range out {
				if k == j {
					continue next
				}
			}
			out = append(out, j)
		}
		adj[i] = out
	}
	return adj
}

func (w *diskCold) setup() error {
	adj := diskGraph(w.cfg.seed)
	var text bytes.Buffer
	for i, out := range adj {
		for _, j := range out {
			fmt.Fprintf(&text, "e(%d, %d).\n", i, j)
		}
	}
	textBytes := text.Len()
	dir, err := os.MkdirTemp(w.cfg.work, "disk-")
	if err != nil {
		return err
	}
	w.dir = dir
	t := time.Now()
	st, err := idlog.BulkLoadFacts(filepath.Join(dir, "db"), &text)
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	w.bulkRate = append(w.bulkRate, float64(st.Tuples)/time.Since(t).Seconds())
	w.amp = append(w.amp, float64(dirBytes(dir))/float64(textBytes))
	t = time.Now()
	db, err := idlog.OpenDiskDatabase(filepath.Join(dir, "db"), 0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	w.openMS = append(w.openMS, msSince(t))
	db.Freeze()
	w.db = db
	// Warm: the first bound goal builds the relation's probe index.
	pq, err := w.prog.Prepare(fmt.Sprintf(diskForms[1], 0))
	if err != nil {
		return err
	}
	_, err = pq.Query(db)
	return err
}

func (w *diskCold) teardown() {
	w.db = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// diskAnswer is one operation's answer, checked after the phase because
// checking runs the engine.
type diskAnswer struct {
	op dop
	fp uint64
	ok bool
}

// run prepares (through the caller's cache) and queries one goal,
// returning its milliseconds and answer.
func (w *diskCold) run(op dop, cache *lru[*idlog.PreparedQuery], tr *tracer, st *layerStats) (float64, diskAnswer) {
	goal := fmt.Sprintf(diskForms[op.form], op.node)
	var qr *idlog.QueryResult
	var err error
	t := time.Now()
	tr.beginOp(diskFormNames[op.form])
	pq, ok := cache.get(goal)
	if !ok {
		if st != nil {
			pq, err = st.prepare(tr, w.prog, goal)
		} else {
			pq, err = w.prog.Prepare(goal)
		}
		if err == nil {
			cache.put(goal, pq)
		}
	}
	if err == nil {
		if st != nil {
			qr, err = st.query(tr, pq, w.db)
		} else {
			qr, err = pq.Query(w.db)
		}
	}
	tr.end()
	ms := msSince(t)
	ans := diskAnswer{op: op, ok: err == nil}
	if err == nil {
		ans.fp = fingerprintRows(tupleRows(qr.Rows))
	}
	return ms, ans
}

// verify checks answers against the plain configuration evaluated in
// memory over the part of the graph each goal can reach: the out-edges
// of every node within hops-1 steps of the start.
func (w *diskCold) verify(c *checker, adj [][]int32, answers []diskAnswer, corrupt bool) {
	memo := map[dop]uint64{}
	for _, a := range answers {
		want, ok := memo[a.op]
		if !ok {
			want = w.expected(adj, a.op)
			memo[a.op] = want
		}
		if corrupt {
			want ^= 1
		}
		c.check(a.ok && a.fp == want, "%s goal from node %d: answer differs from the plain-configuration oracle", diskFormNames[a.op.form], a.op.node)
	}
}

func (w *diskCold) expected(adj [][]int32, op dop) uint64 {
	hops := op.form + 2
	db := idlog.NewDatabase()
	frontier := []int32{int32(op.node)}
	seen := map[int32]bool{int32(op.node): true}
	for h := 0; h < hops; h++ {
		var next []int32
		for _, x := range frontier {
			for _, y := range adj[x] {
				_ = db.Add("e", idlog.Ints(int64(x), int64(y))) // well-formed generated edge
				if !seen[y] {
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	db.Freeze()
	pq, err := w.prog.Prepare(fmt.Sprintf(diskForms[op.form], op.node))
	if err != nil {
		return 0
	}
	qr, err := pq.Query(db, plainOpts...)
	if err != nil {
		return 0
	}
	return fingerprintRows(tupleRows(qr.Rows))
}

// diskReplay is the disk-cold stream for the traced run, with the
// block cache's counters taken around the phase.
type diskReplay struct {
	w       *diskCold
	ops     *stream[dop]
	cache   *lru[*idlog.PreparedQuery]
	answers []diskAnswer

	h0, m0       uint64
	hits, misses uint64
	n            int
}

func (r *diskReplay) reset() error {
	r.ops = newDiskStream(r.w.cfg.seed)
	r.cache = newLRU[*idlog.PreparedQuery](diskPrepCache)
	r.answers = nil
	r.h0, r.m0, _ = idlog.DiskCacheStats()
	return nil
}

func (r *diskReplay) op(i int, tr *tracer, st *layerStats) float64 {
	ms, ans := r.w.run(r.ops.next(), r.cache, tr, st)
	r.answers = append(r.answers, ans)
	return ms
}

func (r *diskReplay) verify() {
	h1, m1, _ := idlog.DiskCacheStats()
	r.hits, r.misses, r.n = h1-r.h0, m1-r.m0, len(r.answers)
	r.w.verify(&r.w.rep.chk, diskGraph(r.w.cfg.seed), r.answers, false)
}
