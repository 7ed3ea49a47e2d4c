package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// A request that queues behind a stalled one must carry the wait in its
// latency: latency runs from the due time, not from the send.
func TestOpenLoopCountsQueueingFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall) // the first request holds the only connection
		}
		fmt.Fprint(w, `{"candidates":[]}`)
	}))
	defer srv.Close()

	c := newClient(srv.URL, 1)
	defer c.close()
	src := newCycle([]*op{searchOp([]string{"x"})})
	var next atomic.Int64
	p := openLoop(c, src, &next, 1, 100, 500*time.Millisecond)

	if p.Attempted != 50 || p.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want 50 and 0: %v", p.Attempted, p.Failed, p.Errors)
	}
	lat := sortedCopy(p.latencies())
	// Sends due at 10, 20, … ms all waited for the stall to end at 300 ms:
	// the one due at 10 ms must show about 290 ms although the server
	// answered it at once, and roughly thirty sends waited at all.
	queued := 0
	for _, l := range lat {
		if l > 50 {
			queued++
		}
	}
	if queued < 20 {
		t.Errorf("%d requests show a wait above 50 ms; the ~30 that queued behind the stall should", queued)
	}
	if second := lat[len(lat)-2]; second < 200 {
		t.Errorf("second-largest latency %.1f ms: the request due at 10 ms waited ~290 ms behind the stall", second)
	}
	if lat[0] > 50 {
		t.Errorf("smallest latency %.1f ms: requests due after the stall should be fast", lat[0])
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if b := samplesBeyond(1000, 99); b != 10 {
		t.Errorf("samplesBeyond(1000, 99) = %d, want 10", b)
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 95); got != 95 {
		t.Errorf("percentile(1..100, 95) = %v, want 95", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the benchmark's acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "grandchild", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 12, 30, 30, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// The search-miss streams are the same for the same seed, different for
// different seeds, pairwise distinct, and every keyword matches the data.
func TestMissStreamsAreDeterministicDistinctAndMatch(t *testing.T) {
	for _, tc := range []struct {
		data dataset
		pick func(*corpus, *rand.Rand, int) []string
	}{
		{dblpSmoke, dblpShapes.pick},
		{tapSmoke, tapShapes.pick},
	} {
		triples := tc.data.generate(1)
		c := buildCorpus(tc.data.Kind, triples)
		a, b, other := newMissStream(c, 1, tc.pick), newMissStream(c, 1, tc.pick), newMissStream(c, 2, tc.pick)
		e := engine.New(engine.Config{})
		e.AddTriples(triples)
		e.Seal()
		seen := map[string]bool{}
		differs := false
		for i := 0; i < 1500; i++ {
			// b is read out of order to show at(i) does not depend on the caller.
			qa := a.at(i)
			b.at(1499 - i)
			key := queryKey(qa.Keywords)
			if seen[key] {
				t.Fatalf("%s: query %d %v repeats an earlier one", tc.data.Kind, i, qa.Keywords)
			}
			seen[key] = true
			if !reflect.DeepEqual(qa.Keywords, other.at(i).Keywords) {
				differs = true
			}
			if i < 200 {
				for _, kw := range qa.Keywords {
					if len(e.KeywordIndex().Lookup(kw)) == 0 {
						t.Errorf("%s: keyword %q of query %d matches nothing", tc.data.Kind, kw, i)
					}
				}
			}
		}
		for i := 0; i < 1500; i++ {
			if !reflect.DeepEqual(a.at(i).Keywords, b.at(i).Keywords) {
				t.Fatalf("%s: query %d differs between two streams of one seed", tc.data.Kind, i)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same stream", tc.data.Kind)
		}
	}
}

// BENCHMARK.json repeats the names, units and bounds defined in
// metrics.go and the workloads defined in workloads.go.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q / %q in workloads.go", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d defined", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in metrics.go", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
}

// The smoke run drives every workload end to end — build, set-up, load,
// crash and recovery, answer check, layers pass — on tiny data.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots serverd; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupAll()
	for i := range workloads {
		rc := runConfig{Root: root, BinDir: binDir, W: &workloads[i], Seed: 7, Seconds: 1.5, Trace: true, Smoke: true, Conns: runtime.NumCPU()}
		res, err := rc.run()
		if err != nil {
			t.Fatalf("%s: %v", rc.W.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect run: attempted %d failed %d notes %v", rc.W.Name, res.Attempted, res.Failed, res.Notes)
		}
		for _, d := range endToEnd {
			// A one-second open loop on tiny data may cost serverd less
			// than one 10 ms tick of CPU time.
			if v := res.Metrics[d.Name]; !(v > 0) && d.Name != "cpu_ms_per_op" {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", rc.W.Name, d.Name, v)
			}
		}
		m := res.Metrics
		switch rc.W.Name {
		case "dblp_search_miss", "tap_search_miss":
			sum := m["keywordindex.lookup_us"] + m["summary.augment_us"] + m["core.oracle_build_us"] + m["core.explore_us"] + m["query.map_us"] + m["engine.unattributed_us"]
			if math.Abs(sum-m["engine.search_us"]) > 1e-6 {
				t.Errorf("%s: stages + unattributed = %v, engine.search_us = %v", rc.W.Name, sum, m["engine.search_us"])
			}
			if m["server.cache_hit_ratio"] != 0 {
				t.Errorf("%s: cache hit ratio %v, want 0", rc.W.Name, m["server.cache_hit_ratio"])
			}
		case "dblp_search_hot":
			if m["server.cache_hit_ratio"] < 0.99 {
				t.Errorf("hot: cache hit ratio %v, want >= 0.99", m["server.cache_hit_ratio"])
			}
		case "dblp_execute":
			if m["exec.join_iterations"] <= 0 || m["store.range_ns"] <= 0 {
				t.Errorf("execute: exec layer metrics missing: %v", m)
			}
		case "dblp_mixed_ingest":
			if m["ingest_triples_s"] <= 0 || m["recovery_s"] <= 0 || m["ingest.replayed_batches"] <= 0 {
				t.Errorf("mixed: ingest metrics missing: %v", m)
			}
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+rc.W.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", rc.W.Name, err)
		}
	}
}
