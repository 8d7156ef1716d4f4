package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idlog"
	"idlog/internal/server"
	"idlog/internal/wal"
)

// live-write: idlogd with a write-ahead log. One connection writes a
// seeded mix of mutations to a session holding chain-256 edges and emp
// 50×20, with live views on tc and on Example 4; the other reads tc
// goals and the sampling view. Every acknowledged write is fsynced, and
// the server checkpoints at its default 1024 WAL entries.
const (
	tailMax  = 8      // extra chain nodes the tail walk may append
	leafMax  = 16     // live leaf spurs at most
	leafBase = 100000 // leaf node ids start here
	empMax   = 16     // inserted employees alive at most
	viewTC   = "tcv"
	viewSel  = "sel"
	liveSess = "live"
)

// Write classes, and their counts per block of 100 writes (the mid-chain
// token expands into a delete and the reinsert that follows it).
const (
	wTail = iota
	wLeaf
	wEmp
	wMid
	wMidIns
)

var (
	writeClassNames = []string{"tail", "leaf", "emp", "mid-delete", "mid-reinsert"}
	liveWriteMix    = []int{46, 28, 22, 2}
	readClassNames  = []string{"tc-goal", "view"}
	liveReadMix     = []int{7, 3}
)

// liveFact is one ground fact of a mutation.
type liveFact struct {
	pred string
	a, b string
	ints bool
}

func (f liveFact) text() string { return f.pred + "(" + f.a + ", " + f.b + ")." }

func (f liveFact) fact() idlog.Fact {
	if f.ints {
		x, _ := strconv.ParseInt(f.a, 10, 64) // generated from ints
		y, _ := strconv.ParseInt(f.b, 10, 64)
		return idlog.Fact{Pred: f.pred, Tuple: idlog.Ints(x, y)}
	}
	return idlog.Fact{Pred: f.pred, Tuple: idlog.Strs(f.a, f.b)}
}

func edgeFact(x, y int) liveFact {
	return liveFact{pred: "e", a: strconv.Itoa(x), b: strconv.Itoa(y), ints: true}
}

// mutation is one write of the stream.
type mutation struct {
	class     int
	ins, dels []liveFact
}

func joinFacts(fs []liveFact) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.text()
	}
	return strings.Join(parts, " ")
}

// newWriteStream starts the seeded write stream. Every insert adds an
// absent fact and every delete removes a present one, so each write
// changes the database.
func newWriteStream(seed uint64) *stream[mutation] {
	tail := 0
	var leaves, emps []liveFact
	nextLeaf, nextEmp := 0, 0
	// take removes a random element of *fs.
	take := func(rng *rand.Rand, fs *[]liveFact) liveFact {
		i := rng.Intn(len(*fs))
		f := (*fs)[i]
		(*fs)[i] = (*fs)[len(*fs)-1]
		*fs = (*fs)[:len(*fs)-1]
		return f
	}
	return newStream(int64(seed), liveWriteMix, func(rng *rand.Rand, c int) []mutation {
		switch c {
		case wTail:
			if tail == 0 || (tail < tailMax && rng.Intn(2) == 0) {
				tail++
				return []mutation{{class: wTail, ins: []liveFact{edgeFact(chainLen+tail-1, chainLen+tail)}}}
			}
			tail--
			return []mutation{{class: wTail, dels: []liveFact{edgeFact(chainLen+tail, chainLen+tail+1)}}}
		case wLeaf:
			if len(leaves) == 0 || (len(leaves) < leafMax && rng.Intn(2) == 0) {
				f := edgeFact(rng.Intn(chainLen), leafBase+nextLeaf)
				nextLeaf++
				leaves = append(leaves, f)
				return []mutation{{class: wLeaf, ins: []liveFact{f}}}
			}
			return []mutation{{class: wLeaf, dels: []liveFact{take(rng, &leaves)}}}
		case wEmp:
			if len(emps) == 0 || (len(emps) < empMax && rng.Intn(2) == 0) {
				f := liveFact{pred: "emp", a: fmt.Sprintf("n%06d", nextEmp), b: fmt.Sprintf("dept%03d", rng.Intn(50))}
				nextEmp++
				emps = append(emps, f)
				return []mutation{{class: wEmp, ins: []liveFact{f}}}
			}
			return []mutation{{class: wEmp, dels: []liveFact{take(rng, &emps)}}}
		default:
			x := 64 + rng.Intn(128)
			f := edgeFact(x, x+1)
			return []mutation{{class: wMid, dels: []liveFact{f}}, {class: wMidIns, ins: []liveFact{f}}}
		}
	})
}

// newReadStream starts the seeded read stream.
func newReadStream(seed uint64) *stream[lread] {
	return newStream(int64(seed)+1, liveReadMix, func(rng *rand.Rand, c int) []lread {
		return []lread{{class: c, node: rng.Intn(chainLen)}}
	})
}

// lread is one read of the reader's stream.
type lread struct {
	class int // 0: tc goal, 1: view read
	node  int
}

type liveWrite struct {
	cfg      *runConfig
	rep      *report
	initial  string
	viewSeed uint64
	progs    map[string]*idlog.Program

	dir string
	srv *server.Server
	hs  *httpServer
	cl  *client
}

func runLiveWrite(cfg *runConfig, rep *report) error {
	w := &liveWrite{cfg: cfg, rep: rep}
	rep.env["engine"] = "memory"
	rep.env["clients"] = 2
	rep.env["flush_policy"] = "fsync per acknowledged write; checkpoint at 1024 WAL entries (server default)"
	rep.env["mix"] = fmt.Sprintf("writes per 100: %v of %v (mid token = delete + reinsert); reads per 10: %v of %v",
		liveWriteMix, writeClassNames[:4], liveReadMix, readClassNames)
	defer w.teardown() // idempotent: also cleans up a failed set-up
	if err := repeatSetup(rep, setupRepeats, w.setup, w.teardown); err != nil {
		return err
	}
	progs := map[string]string{"tc": tcLeftSrc, "sample": sampleSrc, "oracle": liveOracleSrc}
	w.progs = map[string]*idlog.Program{}
	for name, src := range progs {
		p, err := idlog.Parse(src)
		if err != nil {
			return err
		}
		w.progs[name] = p
	}
	selfCheck(rep, func(c *checker, corrupt bool) {
		o := newLiveOracle(w)
		status, data, err := w.cl.do(http.MethodPost, "/v1/query", w.readBody(lread{node: 3}))
		got, ok := readFP(lread{node: 3}, status, data, err)
		want := o.answer(lread{node: 3})
		if corrupt {
			want ^= 1
		}
		c.check(ok && got == want, "self-check read")
	})

	seconds := cfg.seconds
	if cfg.trace {
		seconds = 0.4 * cfg.seconds
	}
	entries := w.srv.WAL().Entries()
	before, err := w.cl.scrape()
	if err != nil {
		return err
	}
	wrec, rrec, pending, acked := w.httpPhase(seconds)
	after, err := w.cl.scrape()
	if err != nil {
		return err
	}
	w.verifyReads(pending)
	pending = nil
	w.checkCheckpoints(entries, acked, before, after)
	if !cfg.trace {
		rep.setDurations(wrec.lat, wrec.wall)
		wrec.print(writeClassNames, "write")
		rrec.print(readClassNames, "read")
		wrec, rrec = nil, nil // the benchmark's own records are not the system's memory
		rep.e2e["live_heap_mb"] = liveHeapMB()
	} else {
		serverLayerMetrics(rep, before, after, rrec)
		rep.layer["server.facts_handler_ms_mean"] = endpointMeanMS(before, after, "facts")
		if err := w.checkpointProbe(); err != nil {
			return err
		}
	}
	if err := w.finalChecks(acked); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	lr := &liveReplay{w: w}
	defer lr.close()
	tr, err := tracedReplay(cfg, rep, lr, 0.3*cfg.seconds)
	if err != nil {
		return err
	}
	lr.fill(rep, tr)
	return nil
}

func (w *liveWrite) setup() error {
	w.initial = chainFacts(chainLen) + empFacts(50, 20)
	w.viewSeed = seedFor(w.cfg.seed, 0)
	dir, err := os.MkdirTemp(w.cfg.work, "live-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv = server.New(server.Config{})
	if err := w.srv.OpenWAL(w.walPath()); err != nil {
		w.srv.Close()
		w.srv = nil
		return err
	}
	hs, err := serve(w.srv.Handler())
	if err != nil {
		w.srv.Close()
		w.srv = nil
		return err
	}
	w.hs, w.cl = hs, newClient(hs.base)
	for _, p := range [][2]string{{"tc", tcLeftSrc}, {"sample", sampleSrc}} {
		if _, err := w.cl.postOK("/v1/programs", map[string]string{"name": p[0], "source": p[1]}); err != nil {
			return err
		}
	}
	if _, err := w.cl.postOK("/v1/sessions", map[string]string{"name": liveSess, "facts": w.initial}); err != nil {
		return err
	}
	if _, err := w.cl.postOK("/v1/sessions/"+liveSess+"/views", map[string]any{"name": viewTC, "program": "tc"}); err != nil {
		return err
	}
	if _, err := w.cl.postOK("/v1/sessions/"+liveSess+"/views", map[string]any{"name": viewSel, "program": "sample", "seed": w.viewSeed}); err != nil {
		return err
	}
	for _, r := range []lread{{class: 0, node: 1}, {class: 1}} {
		if _, err := w.cl.postOK("/v1/query", json.RawMessage(w.readBody(r))); err != nil {
			return err
		}
	}
	return nil
}

func (w *liveWrite) walPath() string { return filepath.Join(w.dir, "idlogd.wal") }

func (w *liveWrite) teardown() {
	if w.hs != nil {
		w.cl.close()
		w.hs.stop()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *liveWrite) readBody(r lread) []byte {
	var q wireQuery
	if r.class == 0 {
		q = wireQuery{Program: "tc", Session: liveSess, Goal: fmt.Sprintf("tc(%d, Y)", r.node)}
	} else {
		q = wireQuery{Session: liveSess, View: viewSel, Predicates: []string{"select_two_emp"}}
	}
	b, _ := json.Marshal(q) // a struct of strings always marshals
	return b
}

// readFP fingerprints a read's answer from its reply.
func readFP(r lread, status int, data []byte, err error) (uint64, bool) {
	if err != nil || status != http.StatusOK {
		return 0, false
	}
	rep, derr := decodeReply(data)
	if derr != nil {
		return 0, false
	}
	if r.class == 0 {
		return fingerprintRows(wireRows(rep.Rows)), true
	}
	rel, ok := rep.Relations["select_two_emp"]
	return fingerprintRows(wireRows(rel.Tuples)), ok
}

// mutateReply is the part of a /facts acknowledgment the checks read.
type mutateReply struct {
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Views    []struct {
		Name    string `json:"name"`
		Error   string `json:"error"`
		Rebuilt bool   `json:"rebuilt"`
		Dropped bool   `json:"dropped"`
	} `json:"views"`
}

// pendingRead is a read whose answer is checked after the phase: it must
// equal the oracle's answer at some version between the writes
// acknowledged when it was sent and the writes started when it returned.
type pendingRead struct {
	r      lread
	lo, hi int
	fp     uint64
	ok     bool // the reply was well formed
}

// httpPhase runs the writer and the reader connections for seconds.
func (w *liveWrite) httpPhase(seconds float64) (wrec, rrec *opRecord, pending []pendingRead, ackedWrites int) {
	var started, acked atomic.Int64
	writes, reads := newWriteStream(w.cfg.seed), newReadStream(w.cfg.seed)
	wrec, rrec = &opRecord{}, &opRecord{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; time.Now().Before(deadline); k++ {
			m := writes.next()
			body, _ := json.Marshal(map[string]string{"inserts": joinFacts(m.ins), "deletes": joinFacts(m.dels)}) // strings always marshal
			started.Add(1)
			t := time.Now()
			status, data, err := w.cl.do(http.MethodPost, "/v1/sessions/"+liveSess+"/facts", body)
			wrec.add(msSince(t), m.class, len(data))
			ok := checkMutation(status, data, err, m)
			w.rep.chk.check(ok, "write %d (%s): status %d, error %v: %.200s", k, writeClassNames[m.class], status, err, data)
			if !ok {
				// The server's state no longer follows the stream; later
				// answers could not be checked.
				break
			}
			acked.Add(1)
		}
		wrec.wall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			r := reads.next()
			body := w.readBody(r)
			lo := int(acked.Load())
			t := time.Now()
			status, data, err := w.cl.do(http.MethodPost, "/v1/query", body)
			rrec.add(msSince(t), r.class, len(data))
			hi := int(started.Load())
			fp, ok := readFP(r, status, data, err)
			pending = append(pending, pendingRead{r: r, lo: lo, hi: hi, fp: fp, ok: ok})
		}
		rrec.wall = time.Since(start)
	}()
	wg.Wait()
	return wrec, rrec, pending, int(acked.Load())
}

func checkMutation(status int, data []byte, err error, m mutation) bool {
	if err != nil || status != http.StatusOK {
		return false
	}
	var r mutateReply
	if json.Unmarshal(data, &r) != nil || r.Inserted != len(m.ins) || r.Deleted != len(m.dels) || len(r.Views) != 2 {
		return false
	}
	for _, v := range r.Views {
		if v.Error != "" || v.Rebuilt || v.Dropped {
			return false
		}
	}
	return true
}

// verifyReads checks every pending read against the oracle.
func (w *liveWrite) verifyReads(pending []pendingRead) {
	type need struct{ v, i int }
	var needs []need
	for i, p := range pending {
		for v := p.lo; v <= p.hi; v++ {
			needs = append(needs, need{v, i})
		}
	}
	sort.Slice(needs, func(a, b int) bool { return needs[a].v < needs[b].v })
	matched := make([]bool, len(pending))
	o := newLiveOracle(w)
	for _, n := range needs {
		p := pending[n.i]
		if matched[n.i] || !p.ok {
			continue
		}
		o.advance(n.v)
		matched[n.i] = o.answer(p.r) == p.fp
	}
	for i, p := range pending {
		w.rep.chk.check(matched[i], "read %s node %d (versions %d..%d): answer matches no version's oracle answer",
			readClassNames[p.r.class], p.r.node, p.lo, p.hi)
	}
}

// checkCheckpoints cross-checks idlogd's checkpoint counter against the
// checkpoints the acknowledged writes must have triggered.
func (w *liveWrite) checkCheckpoints(entries, writes int, before, after promMetrics) {
	want := 0
	for k := 0; k < writes; k++ {
		entries++
		if entries >= 1024 {
			want++
			entries = 1 // the checkpoint rewrites the log to one record per session
		}
	}
	got := int(after.delta(before, "idlogd_wal_checkpoints_total"))
	fmt.Printf("# checkpoints: %d during %d acknowledged writes\n", got, writes)
	if got != want {
		w.rep.problem("idlogd_wal_checkpoints_total moved by %d, want %d for %d writes", got, want, writes)
	}
}

// checkpointProbe times Server.Checkpoint directly and cross-checks the
// checkpoint counter.
func (w *liveWrite) checkpointProbe() error {
	before, err := w.cl.scrape()
	if err != nil {
		return err
	}
	const n = 3
	worst := 0.0
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := w.srv.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if ms := msSince(t); ms > worst {
			worst = ms
		}
	}
	after, err := w.cl.scrape()
	if err != nil {
		return err
	}
	if got := after.delta(before, "idlogd_wal_checkpoints_total"); got != n {
		w.rep.problem("%d direct checkpoints moved idlogd_wal_checkpoints_total by %g", n, got)
	}
	w.rep.layer["wal.checkpoint_ms_max"] = worst
	return nil
}

// finalChecks runs after the writes stop: both live views must equal a
// plain evaluation over the final database, the server's state must
// equal the acknowledged writes' state, and a fresh server restarted
// from only the WAL and checkpoint on disk must hold that same state.
func (w *liveWrite) finalChecks(acked int) error {
	o := newLiveOracle(w)
	o.advance(acked)
	final := o.database()
	for _, v := range []struct{ view, prog, pred string }{{viewTC, "tc", "tc"}, {viewSel, "sample", "select_two_emp"}} {
		data, err := w.cl.postOK("/v1/query", map[string]any{"session": liveSess, "view": v.view, "predicates": []string{v.pred}})
		if err != nil {
			return err
		}
		reply, err := decodeReply(data)
		if err != nil {
			return err
		}
		got := fingerprintRows(wireRows(reply.Relations[v.pred].Tuples))
		opts := plainOpts
		if v.view == viewSel {
			opts = append([]idlog.Option{idlog.WithSeed(w.viewSeed)}, plainOpts...)
		}
		res, err := w.progs[v.prog].Eval(final, opts...)
		if err != nil {
			return err
		}
		if got != fingerprintRows(tupleRows(res.Relation(v.pred).Tuples())) {
			w.rep.problem("live view %s differs from a plain evaluation over the final database", v.view)
		}
	}
	ref := server.New(server.Config{})
	defer ref.Close()
	if err := ref.CreateSessionDB(liveSess, final); err != nil {
		return err
	}
	want := ref.StateFingerprint()
	if got := w.srv.StateFingerprint(); got != want {
		w.rep.problem("server state %s differs from the acknowledged writes' state %s", got, want)
	}
	w.cl.close()
	w.hs.stop()
	w.hs = nil
	w.srv.Close()
	w.srv = nil
	restarted := server.New(server.Config{})
	defer restarted.Close()
	if err := restarted.OpenWAL(w.walPath()); err != nil {
		w.rep.problem("restart from the WAL failed: %v", err)
		return nil
	}
	if got := restarted.StateFingerprint(); got != want {
		w.rep.problem("state restarted from the WAL and checkpoint %s differs from the acknowledged state %s", got, want)
	}
	fmt.Printf("# durability: restarted state %s after %d acknowledged writes\n", restarted.StateFingerprint(), acked)
	return nil
}

// liveOracleSrc answers tc(c, Y) for a start node c given as start(c),
// so the oracle evaluates one node's reachability per version.
const liveOracleSrc = `t(Y) :- start(X), e(X, Y).
t(Y) :- t(X), e(X, Y).
`

// liveOracle replays the write stream over the initial database and
// answers reads at any version with the plain configuration. Versions
// only move forward.
type liveOracle struct {
	w      *liveWrite
	writes *stream[mutation]
	v      int
	edges  map[[2]string]bool
	emps   map[[2]string]bool
	empVer int
	db     *idlog.Database // cached database of version dbVer
	dbVer  int
	tcMemo map[[2]int]uint64 // (version, node) -> answer
	selFP  map[int]uint64    // emp version -> answer
}

func newLiveOracle(w *liveWrite) *liveOracle {
	o := &liveOracle{w: w, writes: newWriteStream(w.cfg.seed), edges: map[[2]string]bool{}, emps: map[[2]string]bool{}, dbVer: -1,
		tcMemo: map[[2]int]uint64{}, selFP: map[int]uint64{}}
	for i := 0; i < chainLen; i++ {
		o.edges[[2]string{strconv.Itoa(i), strconv.Itoa(i + 1)}] = true
	}
	for d := 0; d < 50; d++ {
		for e := 0; e < 20; e++ {
			o.emps[[2]string{fmt.Sprintf("e%03d_%04d", d, e), fmt.Sprintf("dept%03d", d)}] = true
		}
	}
	return o
}

// advance applies writes until version v (v writes applied).
func (o *liveOracle) advance(v int) {
	for ; o.v < v; o.v++ {
		m := o.writes.next()
		for _, f := range m.dels {
			delete(o.set(f), [2]string{f.a, f.b})
		}
		for _, f := range m.ins {
			o.set(f)[[2]string{f.a, f.b}] = true
		}
		if m.class == wEmp {
			o.empVer++
		}
	}
}

func (o *liveOracle) set(f liveFact) map[[2]string]bool {
	if f.pred == "e" {
		return o.edges
	}
	return o.emps
}

// database builds the current version's EDB.
func (o *liveOracle) database() *idlog.Database {
	if o.dbVer == o.v {
		return o.db
	}
	db := idlog.NewDatabase()
	for k := range o.edges {
		_ = db.Add("e", liveFact{pred: "e", a: k[0], b: k[1], ints: true}.fact().Tuple) // generated facts are well formed
	}
	for k := range o.emps {
		_ = db.Add("emp", idlog.Strs(k[0], k[1]))
	}
	db.Freeze()
	o.db, o.dbVer = db, o.v
	return db
}

// answer is r's expected fingerprint at the current version.
func (o *liveOracle) answer(r lread) uint64 {
	if r.class == 0 {
		key := [2]int{o.v, r.node}
		if fp, ok := o.tcMemo[key]; ok {
			return fp
		}
		db := o.database().Thaw()
		_ = db.Add("start", idlog.Ints(int64(r.node)))
		db.Freeze()
		res, err := o.w.progs["oracle"].Eval(db, plainOpts...)
		fp := uint64(0)
		if err == nil {
			fp = fingerprintRows(tupleRows(res.Relation("t").Tuples()))
		}
		o.tcMemo[key] = fp
		return fp
	}
	if fp, ok := o.selFP[o.empVer]; ok {
		return fp
	}
	res, err := o.w.progs["sample"].Eval(o.database(), append([]idlog.Option{idlog.WithSeed(o.w.viewSeed)}, plainOpts...)...)
	fp := uint64(0)
	if err == nil {
		fp = fingerprintRows(tupleRows(res.Relation("select_two_emp").Tuples()))
	}
	o.selFP[o.empVer] = fp
	return fp
}

// liveReplay replays the write and read streams alternately through the
// library layers: ParseFacts, Database.Apply, wal.Log.Append and
// LiveView.Advance for writes; the prepared-query path and the view for
// reads. The log checkpoints like idlogd's at 1024 entries.
type liveReplay struct {
	w       *liveWrite
	writes  *stream[mutation]
	reads   *stream[lread]
	db      *idlog.Database
	views   [2]*idlog.LiveView // tc, sample
	log     *wal.Log
	dir     string
	lruPQ   *lru[*idlog.PreparedQuery]
	version int
	pending []pendingRead

	walBytes, factBytes    float64
	updates, fallbacks     int
	overdeleted, rederived int
	deletedFacts           int
}

func (r *liveReplay) close() {
	if r.log != nil {
		r.log.Close()
		os.RemoveAll(r.dir)
		r.log = nil
	}
}

func (r *liveReplay) reset() error {
	r.close()
	*r = liveReplay{w: r.w, writes: newWriteStream(r.w.cfg.seed), reads: newReadStream(r.w.cfg.seed)}
	db, err := database(r.w.initial)
	if err != nil {
		return err
	}
	r.db = db
	if r.views[0], err = r.w.progs["tc"].NewLiveView(db); err != nil {
		return err
	}
	if r.views[1], err = r.w.progs["sample"].NewLiveView(db, idlog.WithSeed(r.w.viewSeed)); err != nil {
		return err
	}
	if r.dir, err = os.MkdirTemp(r.w.cfg.work, "replay-"); err != nil {
		return err
	}
	if r.log, _, err = wal.Open(filepath.Join(r.dir, "replay.wal")); err != nil {
		return err
	}
	r.lruPQ = newLRU[*idlog.PreparedQuery](256)
	return nil
}

func (r *liveReplay) op(i int, tr *tracer, st *layerStats) float64 {
	if i%2 == 0 {
		return r.write(i/2, tr)
	}
	return r.read(r.reads.next(), tr, st)
}

func (r *liveReplay) write(k int, tr *tracer) float64 {
	m := r.writes.next()
	insText, delText := joinFacts(m.ins), joinFacts(m.dels)
	t := time.Now()
	tr.beginOp("write-" + writeClassNames[m.class])
	ok := r.apply(tr, insText, delText, m)
	tr.end()
	ms := msSince(t)
	r.w.rep.chk.check(ok, "replayed write %d (%s) failed", k, writeClassNames[m.class])
	return ms
}

// apply is one write's layer calls; it reports whether all succeeded
// with the expected effect.
func (r *liveReplay) apply(tr *tracer, insText, delText string, m mutation) bool {
	tr.begin("parser.parse")
	ins, err1 := idlog.ParseFacts(insText)
	dels, err2 := idlog.ParseFacts(delText)
	tr.end()
	if err1 != nil || err2 != nil {
		return false
	}
	tr.begin("core.apply")
	next, delta, err := r.db.Apply(ins, dels)
	tr.end()
	if err != nil || delta.InsertCount() != len(m.ins) || delta.DeleteCount() != len(m.dels) {
		return false
	}
	size := r.log.Size()
	tr.begin("wal.append")
	_, err = r.log.Append(wal.Record{Session: liveSess, Inserts: ins, Deletes: dels})
	tr.end()
	if err != nil {
		return false
	}
	r.walBytes += float64(r.log.Size() - size)
	r.factBytes += float64(len(insText) + len(delText))
	r.deletedFacts += len(dels)
	for _, lv := range r.views {
		tr.begin("incremental.apply")
		up, err := lv.Advance(next, delta)
		tr.end()
		if err != nil {
			return false
		}
		r.updates++
		if up.FallbackFrom >= 0 {
			r.fallbacks++
		}
		r.overdeleted += up.Overdeleted
		r.rederived += up.Rederived
	}
	r.db = next
	r.version++
	if r.log.Entries() >= 1024 {
		return r.checkpoint(tr)
	}
	return true
}

// checkpoint mirrors idlogd's: save the (empty) base snapshot, then
// rewrite the log to one consolidated record for the session.
func (r *liveReplay) checkpoint(tr *tracer) bool {
	tr.begin("storage.save")
	err := idlog.SaveSnapshot(filepath.Join(r.dir, "replay.wal.snapshot"), idlog.NewDatabase())
	tr.end()
	if err != nil {
		return false
	}
	var facts []idlog.Fact
	names := r.db.Names()
	sort.Strings(names)
	for _, n := range names {
		for _, t := range r.db.Relation(n).Sorted() {
			facts = append(facts, idlog.Fact{Pred: n, Tuple: t})
		}
	}
	tr.begin("wal.reset")
	_, err = r.log.ResetWith(r.log.LastLSN(), []wal.Record{{Session: liveSess, Inserts: facts}})
	tr.end()
	return err == nil
}

func (r *liveReplay) read(rd lread, tr *tracer, st *layerStats) float64 {
	var rows []string
	var err error
	t := time.Now()
	tr.beginOp("read-" + readClassNames[rd.class])
	if rd.class == 0 {
		goal := fmt.Sprintf("tc(%d, Y)", rd.node)
		pq, ok := r.lruPQ.get(goal)
		if !ok {
			if pq, err = st.prepare(tr, r.w.progs["tc"], goal); err == nil {
				r.lruPQ.put(goal, pq)
			}
		}
		if err == nil {
			var qr *idlog.QueryResult
			if qr, err = st.query(tr, pq, r.db); err == nil {
				rows = tupleRows(qr.Rows)
			}
		}
	} else {
		tr.begin("incremental.read")
		rows = tupleRows(r.views[1].Relation("select_two_emp").Tuples())
		tr.end()
	}
	tr.end()
	ms := msSince(t)
	r.pending = append(r.pending, pendingRead{r: rd, lo: r.version, hi: r.version, fp: fingerprintRows(rows), ok: err == nil})
	return ms
}

// verify checks the phase's reads against the oracle.
func (r *liveReplay) verify() {
	r.w.verifyReads(r.pending)
	r.pending = nil
}

// fill writes the incremental and wal metrics of the traced phase.
func (r *liveReplay) fill(rep *report, tr *tracer) {
	apply := sortedCopy(tr.durations("incremental.apply"))
	rep.layer["incremental.apply_ms_p50"] = percentile(apply, 50)
	rep.layer["incremental.apply_ms_p99"] = percentile(apply, 99)
	appends := sortedCopy(tr.durations("wal.append"))
	rep.layer["wal.append_ms_p50"] = percentile(appends, 50)
	rep.layer["wal.append_ms_p99"] = percentile(appends, 99)
	rep.layer["incremental.overdeleted_per_delete"] = ratio(float64(r.overdeleted), float64(r.deletedFacts))
	rep.layer["incremental.rederived_per_overdeleted"] = ratio(float64(r.rederived), float64(r.overdeleted))
	rep.layer["incremental.fallback_ratio"] = ratio(float64(r.fallbacks), float64(r.updates))
	rep.layer["wal.bytes_per_fact_byte"] = ratio(r.walBytes, r.factBytes)
}
