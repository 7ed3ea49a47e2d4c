package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/rdf"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	e := engine.New(engine.Config{K: 5})
	datagen.DBLP(datagen.DBLPConfig{Publications: 200, Seed: 1}, func(tr rdf.Triple) {
		e.AddTriple(tr)
	})
	return New(e, cfg, 2)
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestSearchExecuteEndToEnd(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "2006"}})
	if status != http.StatusOK {
		t.Fatalf("search status %d: %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Candidates) == 0 {
		t.Fatalf("no candidates: %s", body)
	}
	if sr.Cached {
		t.Error("first search should not report cached")
	}
	top := sr.Candidates[0]
	if top.ID == "" || top.SPARQL == "" || top.Description == "" {
		t.Errorf("candidate missing fields: %+v", top)
	}

	// Execute by candidate id.
	status, body = postJSON(t, ts, "/v1/execute", map[string]any{"id": top.ID, "limit": 5})
	if status != http.StatusOK {
		t.Fatalf("execute status %d: %s", status, body)
	}
	var er executeResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.SPARQL != top.SPARQL {
		t.Errorf("execute echoed wrong query")
	}

	// Execute by keywords + rank resolves through the same cache.
	status, body = postJSON(t, ts, "/v1/execute", map[string]any{
		"keywords": []string{"publication", "2006"}, "rank": 0, "limit": 5})
	if status != http.StatusOK {
		t.Fatalf("execute-by-rank status %d: %s", status, body)
	}

	// Explain the same candidate.
	status, body = postJSON(t, ts, "/v1/explain", map[string]any{"id": top.ID})
	if status != http.StatusOK {
		t.Fatalf("explain status %d: %s", status, body)
	}
	var xr explainResponse
	if err := json.Unmarshal(body, &xr); err != nil {
		t.Fatal(err)
	}
	if !xr.Empty && len(xr.Steps) == 0 {
		t.Errorf("explain returned no steps: %s", body)
	}
}

func TestSearchCacheHit(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := searchRequest{Keywords: []string{"Publication", "  2006 "}}
	status, _ := postJSON(t, ts, "/v1/search", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	// Same query, different whitespace/case: must hit the cache.
	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication", "2006"}})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatalf("second identical search should report cached: %s", body)
	}
	if s.mCacheHits.Value() != 1 || s.mCacheMisses.Value() != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 1/1",
			s.mCacheHits.Value(), s.mCacheMisses.Value())
	}
	// The hit is visible in /stats.
	status, body = getBody(t, ts, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	sc := stats["search_cache"].(map[string]any)
	if sc["hits"].(float64) != 1 {
		t.Errorf("stats cache hits = %v, want 1", sc["hits"])
	}
	if sc["entries"].(float64) != 1 || sc["bytes"].(float64) <= 0 || sc["capacity_bytes"].(float64) != 8<<20 {
		t.Errorf("stats cache size = %v", sc)
	}
	if _, ok := stats["candidate_cache"]; ok {
		t.Error("stats still reports a candidate_cache block")
	}
}

func TestSearchTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	// A dataset and query heavy enough (tens of thousands of exploration
	// pops, ~40ms uncancelled) that a 1ms deadline always fires well
	// before completion, even on a fast machine. The oracle is pinned off
	// for this engine: what's under test is the deadline cutting off a
	// long exploration, and the default pruning makes this query finish
	// inside a single cancellation-poll interval.
	e := engine.New(engine.Config{K: 50, DMax: 14, Oracle: core.OracleOff})
	datagen.DBLP(datagen.DBLPConfig{Publications: 3000, Seed: 1}, func(tr rdf.Triple) {
		e.AddTriple(tr)
	})
	s := New(e, Config{}, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{
		Keywords: []string{"publication", "author", "journal", "2006"},
		K:        50, TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "timeout" {
		t.Errorf("code = %q, want timeout", er.Code)
	}
	if s.mTimeouts.Value() != 1 {
		t.Errorf("timeout counter = %d, want 1", s.mTimeouts.Value())
	}
	// No goroutine pinned past the deadline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+10 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after timed-out request", before, runtime.NumGoroutine())
}

func TestNotFoundPaths(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown endpoint.
	status, body := getBody(t, ts, "/v1/nope")
	if status != http.StatusNotFound {
		t.Errorf("unknown endpoint: status %d: %s", status, body)
	}
	// Unknown candidate id.
	status, body = postJSON(t, ts, "/v1/execute", map[string]any{"id": "qdeadbeef-0"})
	if status != http.StatusNotFound {
		t.Errorf("unknown candidate: status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "unknown_candidate" {
		t.Errorf("code = %q, want unknown_candidate", er.Code)
	}
	// Rank past the candidate list.
	status, _ = postJSON(t, ts, "/v1/execute", map[string]any{
		"keywords": []string{"publication", "2006"}, "rank": 99})
	if status != http.StatusNotFound {
		t.Errorf("absurd rank: status %d", status)
	}
	// Wrong method on a POST endpoint.
	status, _ = getBody(t, ts, "/v1/search")
	if status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search: status %d, want 405", status)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body any
	}{
		{"empty keywords", searchRequest{Keywords: []string{"  ", ""}}},
		{"no keywords", searchRequest{}},
	} {
		status, _ := postJSON(t, ts, "/v1/search", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
	// Malformed JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Execute with no selector.
	status, _ := postJSON(t, ts, "/v1/execute", map[string]any{})
	if status != http.StatusBadRequest {
		t.Errorf("selector-less execute: status %d, want 400", status)
	}
	// Unmatched keywords: search answers 200 with the unmatched list.
	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"zzzzqqqq"}})
	if status != http.StatusOK {
		t.Fatalf("unmatched search: status %d: %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Unmatched) != 1 || len(sr.Candidates) != 0 {
		t.Errorf("unmatched search: %+v", sr)
	}
}

func TestInlineQueryExecute(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lit := "2006"
	status, body := postJSON(t, ts, "/v1/execute", map[string]any{
		"query": queryJSON{
			Atoms: []atomJSON{{
				S: argJSON{Var: "p"},
				P: argJSON{IRI: "http://dblp.example.org/year"},
				O: argJSON{Literal: &lit},
			}},
		},
		"limit": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("inline execute: status %d: %s", status, body)
	}
	var er executeResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Vars) != 1 || er.Vars[0] != "p" {
		t.Errorf("vars = %v, want [p]", er.Vars)
	}
}

func TestConcurrentIdenticalSearches(t *testing.T) {
	s := testServer(t, Config{Workers: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts, "/v1/search", searchRequest{
				Keywords: []string{"publication", "author"}})
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d: status %d", i, st)
		}
	}
	// All n requests produced at most a handful of real computations
	// (singleflight + cache); with perfect overlap exactly one.
	if misses := s.mCacheMisses.Value(); misses > 3 {
		t.Errorf("%d cache misses for %d identical searches, want few", misses, n)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := getBody(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["sealed"] != true || hz["triples"].(float64) <= 0 {
		t.Errorf("healthz = %s", body)
	}

	postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}})
	status, body = getBody(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE searchwebdb_requests_total counter",
		`searchwebdb_requests_total{endpoint="search"} 1`,
		"# TYPE searchwebdb_triples gauge",
		"searchwebdb_request_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestExecuteDefaultLimitTruncates(t *testing.T) {
	s := testServer(t, Config{DefaultLimit: 2, MaxLimit: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/execute", map[string]any{
		"keywords": []string{"publication"}, "limit": 100}) // clamped to 3
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var er executeResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Count > 3 {
		t.Errorf("count = %d, want ≤ MaxLimit 3", er.Count)
	}
}

func BenchmarkSearchCached(b *testing.B) {
	e := engine.New(engine.Config{K: 5})
	datagen.DBLP(datagen.DBLPConfig{Publications: 500, Seed: 1}, func(tr rdf.Triple) {
		e.AddTriple(tr)
	})
	s := New(e, Config{}, runtime.GOMAXPROCS(0))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	payload := []byte(`{"keywords":["publication","2006"]}`)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// TestCandidateIDResolvesWhileSearchCached: a candidate id resolves
// through its search's cache entry, so it executes exactly while that
// search is cached, and answers 404 unknown_candidate after eviction.
func TestCandidateIDResolvesWhileSearchCached(t *testing.T) {
	// A one-byte budget keeps only the most recent search.
	s := testServer(t, Config{CacheBytes: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	search := func(kws ...string) []candidateJSON {
		t.Helper()
		status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: kws, K: 3})
		var sr searchResponse
		if err := json.Unmarshal(body, &sr); err != nil || status != http.StatusOK || len(sr.Candidates) == 0 {
			t.Fatalf("search %v: status %d: %s", kws, status, body)
		}
		return sr.Candidates
	}
	execute := func(id string) (int, string) {
		t.Helper()
		status, body := postJSON(t, ts, "/v1/execute", map[string]any{"id": id, "limit": 1})
		return status, string(body)
	}

	cands := search("publication", "2006")
	top := cands[0].ID
	if status, body := execute(top); status != http.StatusOK {
		t.Fatalf("execute while cached: status %d: %s", status, body)
	}
	last := cands[len(cands)-1].ID
	for _, id := range []string{top[:len(top)-1] + "99", "q0-0", "nohyphen", top + "x", last[:len(last)-1] + "0" + last[len(last)-1:]} {
		if status, body := execute(id); status != http.StatusNotFound || !strings.Contains(body, "unknown_candidate") {
			t.Errorf("forged id %q: status %d: %s", id, status, body)
		}
	}

	search("author") // evicts the first search, and its ids with it
	if status, body := execute(top); status != http.StatusNotFound || !strings.Contains(body, "unknown_candidate") {
		t.Fatalf("execute after eviction: status %d: %s", status, body)
	}

	// Searching again recomputes the same stable ids, which resolve again.
	if again := search("publication", "2006"); again[0].ID != top {
		t.Fatalf("recomputed id %s, want %s", again[0].ID, top)
	}
	if status, body := execute(top); status != http.StatusOK {
		t.Fatalf("execute after re-search: status %d: %s", status, body)
	}
}
