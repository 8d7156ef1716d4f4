package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"idlog"
	"idlog/internal/server"
)

// serve-point: two closed-loop connections send a seeded mix of small
// queries to idlogd on the memory engine. The goal texts outnumber the
// server's 256-entry prepared-query cache and the ad-hoc sources its
// 64-entry program cache, so both caches churn; the rulebase goals
// always hit.
const (
	chainLen     = 256
	gridSide     = 16
	gridBase     = 1000 // grid ids start here, so chain and grid goal texts differ
	ruleLayers   = 64
	adhocSources = 128
	samplePool   = 64
	setupRepeats = 5
)

// Request classes of the serve-point mix, and how many of each one block
// of 100 requests holds.
const (
	clsChain = iota
	clsGrid
	clsRule
	clsSample
	clsAdhoc
)

var (
	serveClassNames = []string{"chain", "grid", "rule", "sample", "adhoc"}
	serveMix        = []int{34, 22, 18, 18, 8}
	ruleGoalLayers  = []int{2, 5, 8, 11}
)

// sreq is one request of the seeded stream: its class and parameter.
type sreq struct {
	class int
	arg   int // chain node, grid node, rule layer, sample seed index or source index
	node  int // ad-hoc goal's chain node
}

type servePoint struct {
	cfg   *runConfig
	rep   *report
	facts map[string]string
	progs map[string]string
	dbs   map[string]*idlog.Database
	comp  map[string]*idlog.Program
	seeds []uint64
	reqs  *stream[sreq]
	want  map[string]uint64

	srv *server.Server
	hs  *httpServer
	cl  *client
}

func runServePoint(cfg *runConfig, rep *report) error {
	w := &servePoint{cfg: cfg, rep: rep}
	rep.env["engine"] = "memory"
	rep.env["clients"] = 2
	rep.env["mix"] = fmt.Sprintf("per 100 requests: %v of %v", serveMix, serveClassNames)
	defer w.teardown() // idempotent: also cleans up a failed set-up
	if err := repeatSetup(rep, setupRepeats, w.setup, w.teardown); err != nil {
		return err
	}
	if err := w.buildOracle(); err != nil {
		return err
	}
	selfCheck(rep, func(c *checker, corrupt bool) {
		q := sreq{class: clsChain, arg: 7}
		status, data, err := w.cl.do(http.MethodPost, "/v1/query", w.body(q))
		w.checkReply(c, q, status, data, err, corrupt)
	})
	if !cfg.trace {
		rec := w.httpPhase(cfg.seconds)
		rep.setDurations(rec.lat, rec.wall)
		rec.print(serveClassNames, "read")
		rec = nil // the benchmark's own records are not the system's memory
		rep.e2e["live_heap_mb"] = liveHeapMB()
		return nil
	}
	before, err := w.cl.scrape()
	if err != nil {
		return err
	}
	rec := w.httpPhase(0.4 * cfg.seconds)
	after, err := w.cl.scrape()
	if err != nil {
		return err
	}
	serverLayerMetrics(rep, before, after, rec)
	_, err = tracedReplay(cfg, rep, &serveReplay{w: w}, 0.3*cfg.seconds)
	return err
}

func (w *servePoint) setup() error {
	w.facts = map[string]string{
		"chain": chainFacts(chainLen),
		"grid":  gridFacts(gridSide, gridBase),
		"c12":   chainFacts(12),
		"emp":   empFacts(50, 20),
	}
	w.progs = map[string]string{"tc": tcLeftSrc, "rules64": rulebaseSrc(ruleLayers), "sample": sampleSrc}
	w.seeds = make([]uint64, samplePool)
	for i := range w.seeds {
		w.seeds[i] = seedFor(w.cfg.seed, i)
	}
	w.reqs = w.newStream()

	w.srv = server.New(server.Config{})
	hs, err := serve(w.srv.Handler())
	if err != nil {
		w.srv.Close()
		return err
	}
	w.hs, w.cl = hs, newClient(hs.base)
	for _, name := range sortedKeys(w.progs) {
		if _, err := w.cl.postOK("/v1/programs", map[string]string{"name": name, "source": w.progs[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(w.facts) {
		if _, err := w.cl.postOK("/v1/sessions", map[string]string{"name": name, "facts": w.facts[name]}); err != nil {
			return err
		}
	}
	// Warm the always-hit entries: the rulebase goals and the sampling
	// program's first evaluation.
	for _, k := range ruleGoalLayers {
		if err := w.warm(sreq{class: clsRule, arg: k}); err != nil {
			return err
		}
	}
	return w.warm(sreq{class: clsSample})
}

// newStream starts the seeded request stream from its beginning.
func (w *servePoint) newStream() *stream[sreq] {
	return newStream(int64(w.cfg.seed), serveMix, func(rng *rand.Rand, c int) []sreq {
		q := sreq{class: c}
		switch c {
		case clsChain:
			q.arg = rng.Intn(chainLen)
		case clsGrid:
			q.arg = gridBase + rng.Intn(gridSide*gridSide)
		case clsRule:
			q.arg = ruleGoalLayers[rng.Intn(len(ruleGoalLayers))]
		case clsSample:
			q.arg = rng.Intn(samplePool)
		case clsAdhoc:
			q.arg, q.node = rng.Intn(adhocSources), rng.Intn(chainLen)
		}
		return []sreq{q}
	})
}

func (w *servePoint) warm(q sreq) error {
	status, data, err := w.cl.do(http.MethodPost, "/v1/query", w.body(q))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up query: status %d: %s", status, data)
	}
	return nil
}

func (w *servePoint) teardown() {
	if w.hs != nil {
		w.cl.close()
		w.hs.stop()
		w.srv.Close()
		w.hs = nil
	}
}

func adhocSource(i int) string {
	return fmt.Sprintf("r%d(X, Y) :- e(X, Y).\nr%d(X, Y) :- r%d(X, Z), e(Z, Y).\n", i, i, i)
}

// query describes q as the idlogd request it is sent as.
func (w *servePoint) query(q sreq) wireQuery {
	switch q.class {
	case clsChain:
		return wireQuery{Program: "tc", Session: "chain", Goal: fmt.Sprintf("tc(%d, Y)", q.arg)}
	case clsGrid:
		return wireQuery{Program: "tc", Session: "grid", Goal: fmt.Sprintf("tc(%d, Y)", q.arg)}
	case clsRule:
		return wireQuery{Program: "rules64", Session: "c12", Goal: fmt.Sprintf("l%d(0, Y)", q.arg)}
	case clsSample:
		seed := w.seeds[q.arg]
		return wireQuery{Program: "sample", Session: "emp", Predicates: []string{"select_two_emp"}, Seed: &seed}
	default:
		return wireQuery{Source: adhocSource(q.arg), Session: "chain", Goal: fmt.Sprintf("r%d(%d, Y)", q.arg, q.node)}
	}
}

func (w *servePoint) body(q sreq) []byte {
	b, _ := json.Marshal(w.query(q)) // a struct of strings always marshals
	return b
}

// key names q's expected answer in the oracle.
func (w *servePoint) key(q sreq) string {
	switch q.class {
	case clsChain:
		return "chain:" + strconv.Itoa(q.arg)
	case clsGrid:
		return "grid:" + strconv.Itoa(q.arg)
	case clsRule:
		return "rule:" + strconv.Itoa(q.arg)
	case clsSample:
		return "sample:" + strconv.Itoa(q.arg)
	default:
		return "chain:" + strconv.Itoa(q.node)
	}
}

// buildOracle computes every request's expected answer with the plain
// configuration: full models of the sessions' programs, from which each
// bound goal's answer is selected.
func (w *servePoint) buildOracle() error {
	w.dbs = map[string]*idlog.Database{}
	for name, text := range w.facts {
		db, err := database(text)
		if err != nil {
			return err
		}
		w.dbs[name] = db
	}
	w.comp = map[string]*idlog.Program{}
	for name, src := range w.progs {
		p, err := idlog.Parse(src)
		if err != nil {
			return err
		}
		w.comp[name] = p
	}
	w.want = map[string]uint64{}
	for _, s := range []struct{ session, prefix string }{{"chain", "chain:"}, {"grid", "grid:"}} {
		res, err := w.comp["tc"].Eval(w.dbs[s.session], plainOpts...)
		if err != nil {
			return err
		}
		for k, fp := range groupByFirst(res.Relation("tc")) {
			w.want[s.prefix+k] = fp
		}
	}
	res, err := w.comp["rules64"].Eval(w.dbs["c12"], plainOpts...)
	if err != nil {
		return err
	}
	for _, k := range ruleGoalLayers {
		w.want["rule:"+strconv.Itoa(k)] = groupByFirst(res.Relation(fmt.Sprintf("l%d", k)))["0"]
	}
	for i, seed := range w.seeds {
		res, err := w.comp["sample"].Eval(w.dbs["emp"], append([]idlog.Option{idlog.WithSeed(seed)}, plainOpts...)...)
		if err != nil {
			return err
		}
		w.want["sample:"+strconv.Itoa(i)] = fingerprintRows(tupleRows(res.Relation("select_two_emp").Tuples()))
	}
	return nil
}

// expected is q's oracle answer; nodes without successors answer empty.
func (w *servePoint) expected(q sreq) uint64 {
	if fp, ok := w.want[w.key(q)]; ok {
		return fp
	}
	return emptyFP
}

// checkReply checks one idlogd reply against the oracle (or against a
// corrupted expectation, for the self-check).
func (w *servePoint) checkReply(c *checker, q sreq, status int, data []byte, err error, corrupt bool) {
	want := w.expected(q)
	if corrupt {
		want ^= 1
	}
	if err != nil || status != http.StatusOK {
		c.check(false, "%s request: status %d, error %v: %.200s", serveClassNames[q.class], status, err, data)
		return
	}
	r, derr := decodeReply(data)
	if derr != nil {
		c.check(false, "%s request: bad reply: %v", serveClassNames[q.class], derr)
		return
	}
	var got uint64
	if q.class == clsSample {
		got = fingerprintRows(wireRows(r.Relations["select_two_emp"].Tuples))
	} else {
		got = fingerprintRows(wireRows(r.Rows))
	}
	c.check(got == want, "%s request %+v: answer differs from the plain-configuration oracle", serveClassNames[q.class], q)
}

// httpPhase runs the two closed-loop clients for seconds.
func (w *servePoint) httpPhase(seconds float64) *opRecord {
	recs := make([]opRecord, 2)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for g := range recs {
		wg.Add(1)
		go func(rec *opRecord) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := w.reqs.next()
				body := w.body(q)
				t := time.Now()
				status, data, err := w.cl.do(http.MethodPost, "/v1/query", body)
				rec.add(msSince(t), q.class, len(data))
				w.checkReply(&w.rep.chk, q, status, data, err, false)
			}
		}(&recs[g])
	}
	wg.Wait()
	out := &opRecord{wall: time.Since(start)}
	for i := range recs {
		out.merge(&recs[i])
	}
	return out
}

// serverLayerMetrics derives the server-layer metrics from two /metrics
// scrapes around an HTTP phase and the client's view of it.
func serverLayerMetrics(rep *report, before, after promMetrics, rec *opRecord) {
	handler := endpointMeanMS(before, after, "query")
	rep.layer["server.handler_ms_mean"] = handler
	rep.layer["server.wire_ms_mean"] = mean(rec.lat) - handler
	var bytes []float64
	for _, b := range rec.bytes {
		bytes = append(bytes, float64(b))
	}
	rep.layer["server.resp_bytes_mean"] = mean(bytes)
	rep.layer["server.rejected"] = after.delta(before, "idlogd_admission_rejected_total")
	hits := after.delta(before, "idlogd_plan_cache_hits_total")
	misses := after.delta(before, "idlogd_plan_cache_misses_total")
	rep.layer["server.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	fmt.Printf("# http phase: %d requests, handler mean %.4f ms, client round trip mean %.4f ms\n", len(rec.lat), handler, mean(rec.lat))
}

// serveReplay replays the serve-point stream through the library layers
// against the same session snapshots, with the server's caches mirrored.
type serveReplay struct {
	w        *servePoint
	reqs     *stream[sreq]
	prepared *lru[*idlog.PreparedQuery]
	programs *lru[*idlog.Program]
}

func (r *serveReplay) reset() error {
	r.reqs = r.w.newStream()
	r.prepared = newLRU[*idlog.PreparedQuery](256)
	r.programs = newLRU[*idlog.Program](64)
	return nil
}

func (r *serveReplay) op(i int, tr *tracer, st *layerStats) float64 {
	w := r.w
	q := r.reqs.next()
	wq := w.query(q)
	db := w.dbs[wq.Session]
	var rows []string
	var err error
	t := time.Now()
	tr.beginOp(serveClassNames[q.class])
	if q.class == clsSample {
		var res *idlog.Result
		res, err = st.eval(tr, w.comp["sample"], db, idlog.WithSeed(*wq.Seed))
		if err == nil {
			rows = tupleRows(res.Relation("select_two_emp").Tuples())
		}
	} else {
		rows, err = r.goal(tr, st, wq, db)
	}
	tr.end()
	ms := msSince(t)
	w.rep.chk.check(err == nil && fingerprintRows(rows) == w.expected(q),
		"replayed %s request %+v: error %v or answer differs from the oracle", serveClassNames[q.class], q, err)
	return ms
}

// goal answers a goal query the way idlogd does: program (registered or
// through the program cache), then the prepared-query cache, then Query.
func (r *serveReplay) goal(tr *tracer, st *layerStats, wq wireQuery, db *idlog.Database) ([]string, error) {
	prog, progKey := r.w.comp[wq.Program], "p:"+wq.Program
	if wq.Source != "" {
		progKey = "s:" + wq.Source
		p, ok := r.programs.get(progKey)
		if !ok {
			var err error
			if p, err = st.parseProgram(tr, wq.Source); err != nil {
				return nil, err
			}
			r.programs.put(progKey, p)
		}
		prog = p
	}
	key := progKey + "\x00" + wq.Goal
	pq, ok := r.prepared.get(key)
	if !ok {
		var err error
		if pq, err = st.prepare(tr, prog, wq.Goal); err != nil {
			return nil, err
		}
		r.prepared.put(key, pq)
	}
	qr, err := st.query(tr, pq, db)
	if err != nil {
		return nil, err
	}
	return tupleRows(qr.Rows), nil
}
