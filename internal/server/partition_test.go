package server

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestPartitionsWireField drives the per-request "partitions" knob end
// to end: answers are byte-identical to the unpartitioned run at every
// fan-out, bad values are rejected, oversized ones are clamped, the
// partition stats surface in the response, and the counter and skew
// gauge surface on /metrics.
func TestPartitionsWireField(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxParallelism: 4, MaxPartitions: 8})

	run := func(partitions, parallelism int) queryResponse {
		t.Helper()
		var qr queryResponse
		code := post(t, ts.URL+"/v1/query", queryRequest{
			Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
			budgetFields: budgetFields{Partitions: partitions, Parallelism: parallelism},
		}, &qr)
		if code != 200 {
			t.Fatalf("partitions=%d: status %d", partitions, code)
		}
		return qr
	}
	base := run(1, 1)
	for _, p := range []int{2, 8, 64} { // 64 exceeds the clamp, still fine
		got := run(p, 2)
		if got.Relations["tc"].Text != base.Relations["tc"].Text {
			t.Fatalf("partitions=%d diverged from unpartitioned", p)
		}
		if got.Stats == nil || got.Stats.Partitions == 0 || got.Stats.PartitionedRounds == 0 {
			t.Fatalf("partitions=%d: partition stats missing from response: %+v", p, got.Stats)
		}
	}
	if base.Stats == nil || base.Stats.Partitions != 0 {
		t.Fatalf("unpartitioned run reported partition stats: %+v", base.Stats)
	}

	var eb errorBody
	if code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{Partitions: -1},
	}, &eb); code != 400 {
		t.Fatalf("partitions=-1: status %d, want 400", code)
	}

	if got := s.metrics.partitionedQueries.Load(); got != 3 {
		t.Fatalf("partitioned query counter = %d, want 3", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"idlogd_partitioned_queries_total 3",
		"idlogd_partition_skew_ratio ",
		"idlogd_max_partitions 8",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestParseBudgetAutoFanOut: a request that sets neither parallelism
// nor partitions reaches the engine unset — the auto configuration,
// which runs every round inline — whatever the server clamps, so a
// clamp below the host's core count never turns it into a fanned-out
// request. Explicit values resolve to concrete clamped values as
// before, and an explicit partition fan-out takes the clamped auto
// worker count.
func TestParseBudgetAutoFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // auto worker count: 4
	cases := []struct {
		name                    string
		maxPar, maxParts        int
		req                     budgetFields
		wantPar, wantPartitions int
	}{
		{"default config stays auto", 4, 64, budgetFields{}, 0, 0},
		{"parallelism clamp below auto", 2, 64, budgetFields{}, 0, 0},
		{"partitions clamp below auto", 4, 2, budgetFields{}, 0, 0},
		{"both clamps at one", 1, 1, budgetFields{}, 0, 0},
		{"explicit parallelism", 4, 64, budgetFields{Parallelism: 3}, 3, 3},
		{"explicit sequential", 4, 64, budgetFields{Parallelism: 1}, 1, 1},
		{"explicit partitions", 4, 64, budgetFields{Partitions: 8}, 4, 8},
		{"explicit partitions, clamped workers", 2, 64, budgetFields{Partitions: 8}, 2, 8},
		{"explicit unpartitioned", 4, 64, budgetFields{Partitions: 1}, 0, 1},
		{"explicit values clamped", 2, 4, budgetFields{Parallelism: 8, Partitions: 16}, 2, 4},
	}
	for _, c := range cases {
		s, _ := newTestServer(t, Config{MaxParallelism: c.maxPar, MaxPartitions: c.maxParts})
		got, aerr := s.parseBudget(c.req)
		if aerr != nil {
			t.Fatalf("%s: %v", c.name, aerr)
		}
		if got.parallelism != c.wantPar || got.partitions != c.wantPartitions {
			t.Errorf("%s: parallelism=%d partitions=%d, want %d/%d",
				c.name, got.parallelism, got.partitions, c.wantPar, c.wantPartitions)
		}
	}

	// End to end under clamps below the auto worker count: an unset
	// request evaluates inline (no partitioned round) with the answers
	// of a sequential request, and only an explicit fan-out partitions.
	_, ts := newTestServer(t, Config{MaxParallelism: 2, MaxPartitions: 2})
	run := func(b budgetFields) queryResponse {
		t.Helper()
		var qr queryResponse
		if code := post(t, ts.URL+"/v1/query", queryRequest{
			Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
			budgetFields: b,
		}, &qr); code != 200 {
			t.Fatalf("%+v: status %d", b, code)
		}
		return qr
	}
	auto, seq := run(budgetFields{}), run(budgetFields{Parallelism: 1})
	forced := run(budgetFields{Partitions: 2})
	for name, qr := range map[string]queryResponse{"auto": auto, "forced": forced} {
		if qr.Relations["tc"].Text != seq.Relations["tc"].Text {
			t.Fatalf("%s request diverged from sequential", name)
		}
	}
	if auto.Stats == nil || auto.Stats.PartitionedRounds != 0 {
		t.Fatalf("auto request under clamps fanned out: %+v", auto.Stats)
	}
	if forced.Stats == nil || forced.Stats.PartitionedRounds == 0 {
		t.Fatalf("explicit partitions did not fan out: %+v", forced.Stats)
	}
}
