package main

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idlog"
)

// plainOpts is the reference configuration the answer oracle runs:
// sequential, unpartitioned, no demand rewrite. Nothing else uses it.
var plainOpts = []idlog.Option{idlog.WithParallelism(1), idlog.WithPartitions(1), idlog.WithMagic(false)}

// checker counts attempted and failed operations. A wrong answer is a
// failure; the first few are described on standard error.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	quiet     bool // a self-check's checker, whose failures are expected
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if c.failed <= 5 && !c.quiet {
		fmt.Fprintf(os.Stderr, "perfbench: wrong or failed operation: %s\n", fmt.Sprintf(format, args...))
	}
}

func (c *checker) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rowKey renders one answer row canonically: values as in concrete
// syntax, joined by a unit separator.
func rowKey(vals []string) string { return strings.Join(vals, "\x1f") }

// fingerprintRows hashes a set of answer rows independently of order.
func fingerprintRows(rows []string) uint64 {
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", len(sorted))
	for _, r := range sorted {
		h.Write([]byte(r))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// tupleRows renders engine tuples as canonical rows.
func tupleRows(tuples []idlog.Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		vals := make([]string, len(t))
		for j, v := range t {
			vals[j] = v.String()
		}
		out[i] = rowKey(vals)
	}
	return out
}

// groupByFirst maps each first-column value of rel to the fingerprint of
// the rows of its remaining columns: the answer of the bound goal
// rel(c, Y...).
func groupByFirst(rel *idlog.Relation) map[string]uint64 {
	groups := map[string][]string{}
	for _, t := range rel.Tuples() {
		vals := make([]string, len(t)-1)
		for j, v := range t[1:] {
			vals[j] = v.String()
		}
		k := t[0].String()
		groups[k] = append(groups[k], rowKey(vals))
	}
	out := make(map[string]uint64, len(groups))
	for k, rows := range groups {
		out[k] = fingerprintRows(rows)
	}
	return out
}

// emptyFP is the fingerprint of an empty answer.
var emptyFP = fingerprintRows(nil)

// wireValue renders one decoded JSON answer value like value.String.
func wireValue(v any) string {
	switch x := v.(type) {
	case json.Number:
		return x.String()
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

func wireRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = wireValue(v)
		}
		out[i] = rowKey(vals)
	}
	return out
}

// queryReply is the part of an idlogd /v1/query response the checks read.
type queryReply struct {
	Rows      [][]any `json:"rows"`
	Relations map[string]struct {
		Tuples [][]any `json:"tuples"`
	} `json:"relations"`
}

func decodeReply(body []byte) (*queryReply, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var r queryReply
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// httpServer runs an http.Handler on a loopback port until stop.
type httpServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln)
	}()
	return hs, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (hs *httpServer) stop() {
	_ = hs.srv.Close()
	<-hs.done
}

// client is a keep-alive HTTP client holding at most two connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postOK posts a JSON body and requires a 200.
func (c *client) postOK(path string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	status, data, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, data)
	}
	return data, nil
}

// promMetrics is one scrape of idlogd's /metrics, keyed by the full
// series name including labels.
type promMetrics map[string]float64

func (c *client) scrape() (promMetrics, error) {
	status, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := promMetrics{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta is after[k] - before[k].
func (after promMetrics) delta(before promMetrics, k string) float64 { return after[k] - before[k] }

// endpointMeanMS is an endpoint's mean handler time between two scrapes.
func endpointMeanMS(before, after promMetrics, endpoint string) float64 {
	sum := after.delta(before, `idlogd_request_duration_seconds_sum{endpoint="`+endpoint+`"}`)
	n := after.delta(before, `idlogd_request_duration_seconds_count{endpoint="`+endpoint+`"}`)
	return ratio(sum*1000, n)
}

// lru is a least-recently-used map, mirroring idlogd's prepared-query
// and program caches in the library replays.
type lru[V any] struct {
	cap   int
	items map[string]*list.Element
	order *list.List
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, items: map[string]*list.Element{}, order: list.New()}
}

func (l *lru[V]) get(k string) (V, bool) {
	if el, ok := l.items[k]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

func (l *lru[V]) put(k string, v V) {
	l.items[k] = l.order.PushFront(&lruEntry[V]{key: k, val: v})
	if l.order.Len() > l.cap {
		last := l.order.Back()
		l.order.Remove(last)
		delete(l.items, last.Value.(*lruEntry[V]).key)
	}
}

// allocCounter reads the runtime's cumulative heap allocation counters
// without stopping the world.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() (bytes, objects float64) {
	metrics.Read(a.samples)
	return float64(a.samples[0].Value.Uint64()), float64(a.samples[1].Value.Uint64())
}

// medianOf returns the median of xs (0 for none).
func medianOf(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// repeatSetup runs setup n times, tearing down all but the last, and
// reports the median set-up time.
func repeatSetup(rep *report, n int, setup func() error, teardown func()) error {
	var times []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	rep.e2e["setup_s"] = medianOf(times)
	return nil
}

// selfCheck proves the answer check works: a correct expectation passes
// and a deliberately corrupted one is caught.
func selfCheck(rep *report, verify func(c *checker, corrupt bool)) {
	var good checker
	bad := checker{quiet: true}
	verify(&good, false)
	verify(&bad, true)
	if _, f := good.counts(); f != 0 {
		rep.problem("self-check: a correct answer failed its check")
	}
	if _, f := bad.counts(); f != 1 {
		rep.problem("self-check: a corrupted expectation was not caught")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wireQuery is an idlogd /v1/query request body.
type wireQuery struct {
	Program    string   `json:"program,omitempty"`
	Source     string   `json:"source,omitempty"`
	Session    string   `json:"session,omitempty"`
	View       string   `json:"view,omitempty"`
	Goal       string   `json:"goal,omitempty"`
	Predicates []string `json:"predicates,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
}

// opRecord is what a closed-loop phase measured.
type opRecord struct {
	lat   []float64 // ms per operation
	class []int
	bytes []int
	wall  time.Duration
}

func (r *opRecord) add(ms float64, class, bytes int) {
	r.lat = append(r.lat, ms)
	r.class = append(r.class, class)
	r.bytes = append(r.bytes, bytes)
}

func (r *opRecord) merge(o *opRecord) {
	r.lat = append(r.lat, o.lat...)
	r.class = append(r.class, o.class...)
	r.bytes = append(r.bytes, o.bytes...)
}

// print writes per-class latency lines and the aggregate under alias
// (the operation's kind, e.g. read or write).
func (r *opRecord) print(names []string, alias string) {
	by := map[int][]float64{}
	for i, l := range r.lat {
		by[r.class[i]] = append(by[r.class[i]], l)
	}
	for c, name := range names {
		if l := sortedCopy(by[c]); len(l) > 0 {
			fmt.Printf("# class %-12s n %7d  p50 %9.4f ms  p99 %9.4f ms\n", name, len(l), percentile(l, 50), percentile(l, 99))
		}
	}
	all := sortedCopy(r.lat)
	fmt.Printf("# %s_p50_ms %.4f  %s_p99_ms %.4f  %ss_per_s %.2f  (n %d)\n",
		alias, percentile(all, 50), alias, percentile(all, 99), alias, float64(len(all))/r.wall.Seconds(), len(all))
}
