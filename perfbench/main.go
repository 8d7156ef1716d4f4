// Command perfbench is idlog's default-configuration benchmark. It drives
// the shipped defaults through their public entry points on four seeded
// workloads, checks every answer against a plain-configuration oracle,
// and prints one JSON result line as the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run, and prints each layer's
// self time and the tracing overhead above the result line. README.md in
// this directory defines every metric and the end-to-end metric each
// per-layer metric is expected to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; "op" is the workload's measured operation (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). A workload that
// does not reach a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"server.handler_ms_mean", "ms"},
	{"server.wire_ms_mean", "ms"},
	{"server.resp_bytes_mean", "bytes"},
	{"server.facts_handler_ms_mean", "ms"},
	{"server.rejected", "count"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"idlog.prepare_us_p50", "us"},
	{"parser.parse_us_p50", "us"},
	{"analysis.analyze_us_p50", "us"},
	{"magic.rewrite_us_p50", "us"},
	{"magic.applied_ratio", "ratio"},
	{"idlog.query_ms_p50", "ms"},
	{"idlog.query_ms_p99", "ms"},
	{"idlog.eval_ms_p50", "ms"},
	{"idlog.alloc_kb_per_op", "KB"},
	{"idlog.mallocs_per_op", "count"},
	{"core.derivations_per_op", "count"},
	{"core.scanned_per_op", "count"},
	{"core.iterations_per_op", "count"},
	{"core.inserted_per_derivation", "ratio"},
	{"core.partitioned_round_ratio", "ratio"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"relation.indexed_tuples_per_op", "count"},
	{"relation.partitioned_tuples_per_op", "count"},
	{"relation.collisions_per_op", "count"},
	{"incremental.apply_ms_p50", "ms"},
	{"incremental.apply_ms_p99", "ms"},
	{"incremental.overdeleted_per_delete", "count"},
	{"incremental.rederived_per_overdeleted", "ratio"},
	{"incremental.fallback_ratio", "ratio"},
	{"wal.append_ms_p50", "ms"},
	{"wal.append_ms_p99", "ms"},
	{"wal.bytes_per_fact_byte", "ratio"},
	{"wal.checkpoint_ms_max", "ms"},
	{"storage.open_ms", "ms"},
	{"storage.bulk_facts_per_s", "1/s"},
	{"storage.bytes_per_fact_byte", "ratio"},
	{"segment.cache_hit_ratio", "ratio"},
	{"segment.misses_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // build/output directory inside the checkout
	work     string // this run's scratch directory, removed at exit
}

// report collects what a workload measured.
type report struct {
	chk      checker
	e2e      map[string]float64
	layer    map[string]float64
	env      map[string]any
	problems []string // whole-run correctness failures (durability, views)
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, env: map[string]any{}}
}

// problem records a whole-run correctness failure.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

// setDurations fills the op latency metrics from per-operation
// latencies (ms) and the measured wall time.
func (r *report) setDurations(lat []float64, wall time.Duration) {
	lat = sortedCopy(lat)
	r.e2e["op_p50_ms"] = percentile(lat, 50)
	r.e2e["op_p99_ms"] = percentile(lat, 99)
	r.e2e["ops_per_s"] = float64(len(lat)) / wall.Seconds()
}

var workloads = map[string]func(*runConfig, *report) error{
	"serve-point":    runServePoint,
	"fixpoint-batch": runFixpointBatch,
	"live-write":     runLiveWrite,
	"disk-cold":      runDiskCold,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-point, fixpoint-batch, live-write or disk-cold")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files, traces and result records")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", cfg.workload, traceFlag, cfg.seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(cfg.out, "work-"+cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.work, _ = filepath.Abs(work)
	rep := newReport()
	rep.env = environment(&cfg)
	err = run(&cfg, rep)
	os.RemoveAll(cfg.work)
	if err != nil {
		fatal(err)
	}
	emit(&cfg, rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// environment describes the run: what was measured, where and how.
func environment(cfg *runConfig) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"commit":        commit,
		"source_digest": sourceDigest(filepath.Dir(cfg.out)),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"options":       "shipped defaults (auto parallelism, magic, plan cache, partitioning)",
		// Workloads that use them override these.
		"cache_bytes":  "none (memory engine)",
		"flush_policy": "none (no write-ahead log)",
	}
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable summary, stores the full record under
// the output directory, and prints the result line last.
func emit(cfg *runConfig, rep *report) {
	attempted, failed := rep.chk.counts()
	if attempted == 0 {
		rep.problem("no operation was attempted")
		attempted = 1
		failed = 1
	}
	res := result{
		Correct:   failed == 0 && len(rep.problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]jsonMetric{},
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Printf("# error_ratio %.6f (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, d := range defs {
		fmt.Printf("# %-40s %14.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	record := map[string]any{"env": rep.env, "result": res, "problems": rep.problems}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		dir := filepath.Join(cfg.out, "results")
		if os.MkdirAll(dir, 0o755) == nil {
			name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", cfg.workload, cfg.seed, cfg.trace, time.Now().UnixNano())
			_ = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
	}
	env, _ := json.Marshal(rep.env)
	fmt.Printf("# env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
