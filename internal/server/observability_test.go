package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// spanNames flattens a span tree into the set of span names it contains.
func spanNames(nodes []*trace.Node, into map[string]int) map[string]int {
	if into == nil {
		into = map[string]int{}
	}
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Children, into)
	}
	return into
}

func TestTraceInlineSearchExecuteExplain(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}).Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search?trace=1", searchRequest{Keywords: []string{"thanh tran", "publication"}})
	if status != http.StatusOK {
		t.Fatalf("search status %d: %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Trace) != 1 || sr.Trace[0].Name != "search" {
		t.Fatalf("want one root span named search, got %+v", sr.Trace)
	}
	names := spanNames(sr.Trace, nil)
	for _, want := range []string{"lookup", "augment", "explore", "map"} {
		if names[want] == 0 {
			t.Errorf("search trace missing span %q (have %v)", want, names)
		}
	}
	if len(sr.Candidates) == 0 {
		t.Fatal("search returned no candidates")
	}

	status, body = postJSON(t, ts, "/v1/execute?trace=1",
		executeRequest{candidateRef: candidateRef{ID: sr.Candidates[0].ID}})
	if status != http.StatusOK {
		t.Fatalf("execute status %d: %s", status, body)
	}
	var er executeResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	names = spanNames(er.Trace, nil)
	if names["execute"] == 0 || names["plan"] == 0 || names["join"] == 0 {
		t.Errorf("execute trace missing execute/plan/join spans: %v", names)
	}

	status, body = postJSON(t, ts, "/v1/explain?trace=1",
		executeRequest{candidateRef: candidateRef{ID: sr.Candidates[0].ID}})
	if status != http.StatusOK {
		t.Fatalf("explain status %d: %s", status, body)
	}
	var xr explainResponse
	if err := json.Unmarshal(body, &xr); err != nil {
		t.Fatal(err)
	}
	if len(xr.Trace) != 1 || xr.Trace[0].Name != "explain" {
		t.Errorf("explain trace root = %+v, want explain", xr.Trace)
	}

	// Without the flag, no trace rides the response.
	status, body = postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"thanh tran"}})
	if status != http.StatusOK {
		t.Fatalf("untraced search status %d", status)
	}
	var plain searchResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("untraced response carries a trace: %+v", plain.Trace)
	}
}

func TestTraceNDJSONTrailer(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}).Handler())
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}})
	if status != http.StatusOK {
		t.Fatalf("search status %d: %s", status, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	buf, _ := json.Marshal(executeRequest{candidateRef: candidateRef{ID: sr.Candidates[0].ID}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute?trace=1", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var trailer executeStreamTrailer
	if err := json.Unmarshal(last, &trailer); err != nil {
		t.Fatalf("trailer parse: %v (%s)", err, last)
	}
	names := spanNames(trailer.Trace, nil)
	if names["execute"] == 0 || names["join"] == 0 {
		t.Errorf("NDJSON trailer trace missing execute/join spans: %v", names)
	}
}

// TestSlowlogRetention drives the capture layer directly: the slowest
// list keeps the N largest above the threshold (evicting the minimum),
// and the error ring keeps the N most recent, most recent first.
func TestSlowlogRetention(t *testing.T) {
	l := newSlowlog(2, 5*time.Millisecond)
	now := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	l.record("search", "q1", 200, "", now, ms(10), nil)
	l.record("search", "q2", 200, "", now, ms(30), nil)
	l.record("search", "q3", 200, "", now, ms(20), nil) // evicts q1 (min)
	l.record("search", "q4", 200, "", now, ms(1), nil)  // below threshold
	l.record("search", "q5", 200, "", now, ms(15), nil) // slower than nothing retained

	slowest, errs := l.snapshot()
	if len(slowest) != 2 || slowest[0].Query != "q2" || slowest[1].Query != "q3" {
		t.Fatalf("slowest = %+v, want [q2 q3] by descending duration", slowest)
	}
	if len(errs) != 0 {
		t.Fatalf("unexpected error entries: %+v", errs)
	}

	l.record("execute", "e1", 400, "bad", now, ms(0), nil)
	l.record("execute", "e2", 500, "boom", now, ms(0), nil)
	l.record("execute", "e3", 404, "gone", now, ms(0), nil) // evicts e1
	_, errs = l.snapshot()
	if len(errs) != 2 || errs[0].Query != "e3" || errs[1].Query != "e2" {
		t.Fatalf("errors = %+v, want [e3 e2] most recent first", errs)
	}
	if errs[0].Status != 404 || errs[0].Error != "gone" {
		t.Fatalf("error entry = %+v", errs[0])
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{SlowlogSize: 4}).Handler())
	defer ts.Close()

	// Two successful searches and one erroring request.
	for _, kw := range []string{"publication", "thanh tran"} {
		if status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{kw}}); status != http.StatusOK {
			t.Fatalf("search status %d: %s", status, body)
		}
	}
	if status, _ := postJSON(t, ts, "/v1/search", searchRequest{Keywords: nil}); status != http.StatusBadRequest {
		t.Fatalf("empty search status %d, want 400", status)
	}

	status, body := getBody(t, ts, "/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("slowlog status %d: %s", status, body)
	}
	var out struct {
		Build        map[string]any `json:"build"`
		Size         int            `json:"size"`
		Slowest      []*slowEntry   `json:"slowest"`
		RecentErrors []*slowEntry   `json:"recent_errors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Size != 4 {
		t.Errorf("size = %d, want 4", out.Size)
	}
	// Threshold 0 retains every request, including the failing one.
	if len(out.Slowest) != 3 {
		t.Fatalf("slowest has %d entries, want 3: %s", len(out.Slowest), body)
	}
	for i := 1; i < len(out.Slowest); i++ {
		if out.Slowest[i].DurationMS > out.Slowest[i-1].DurationMS {
			t.Errorf("slowest not in descending duration order: %+v", out.Slowest)
		}
	}
	var e *slowEntry
	for _, cand := range out.Slowest {
		if cand.Status == http.StatusOK {
			e = cand
			break
		}
	}
	if e == nil {
		t.Fatal("no successful entry in slowest")
	}
	if e.Endpoint != "search" || e.Query == "" || len(e.Trace) == 0 {
		t.Errorf("slow entry missing endpoint/query/trace: %+v", e)
	}
	if names := spanNames(e.Trace, nil); names["lookup"] == 0 {
		t.Errorf("slow entry trace has no lookup span: %v", names)
	}
	if len(out.RecentErrors) != 1 {
		t.Fatalf("recent_errors has %d entries, want 1", len(out.RecentErrors))
	}
	if out.RecentErrors[0].Status != http.StatusBadRequest ||
		!strings.Contains(out.RecentErrors[0].Error, "bad_request") {
		t.Errorf("error entry = %+v", out.RecentErrors[0])
	}
	if avail, _ := out.Build["available"].(bool); !avail {
		t.Errorf("slowlog build header unavailable: %v", out.Build)
	}
}

func TestSlowlogThresholdAndDisable(t *testing.T) {
	// A threshold far above any test request keeps the slowest list empty
	// while still capturing errors.
	ts := httptest.NewServer(testServer(t, Config{SlowlogThreshold: time.Hour}).Handler())
	defer ts.Close()
	if status, _ := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}}); status != http.StatusOK {
		t.Fatal("search failed")
	}
	postJSON(t, ts, "/v1/search", searchRequest{Keywords: nil})
	status, body := getBody(t, ts, "/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("slowlog status %d", status)
	}
	var out struct {
		Slowest      []*slowEntry `json:"slowest"`
		RecentErrors []*slowEntry `json:"recent_errors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slowest) != 0 {
		t.Errorf("slowest should be empty under an hour threshold: %+v", out.Slowest)
	}
	if len(out.RecentErrors) != 1 {
		t.Errorf("errors should still be captured: %+v", out.RecentErrors)
	}

	// SlowlogSize < 0 disables capture entirely.
	ts2 := httptest.NewServer(testServer(t, Config{SlowlogSize: -1}).Handler())
	defer ts2.Close()
	postJSON(t, ts2, "/v1/search", searchRequest{Keywords: []string{"publication"}})
	postJSON(t, ts2, "/v1/search", searchRequest{Keywords: nil})
	_, body = getBody(t, ts2, "/debug/slowlog")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slowest) != 0 || len(out.RecentErrors) != 0 {
		t.Errorf("disabled slowlog captured entries: %s", body)
	}
}

func TestBuildinfoEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}).Handler())
	defer ts.Close()
	status, body := getBody(t, ts, "/debug/buildinfo")
	if status != http.StatusOK {
		t.Fatalf("buildinfo status %d", status)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if avail, _ := out["available"].(bool); !avail {
		t.Fatalf("buildinfo unavailable: %s", body)
	}
	if gv, _ := out["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %v", out["go_version"])
	}
}

func TestStatsLatencyStagesRuntime(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}).Handler())
	defer ts.Close()
	if status, _ := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"thanh tran", "publication"}}); status != http.StatusOK {
		t.Fatal("search failed")
	}
	status, body := getBody(t, ts, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var out struct {
		Latency map[string]struct {
			Count uint64  `json:"count"`
			P99MS float64 `json:"p99_ms"`
		} `json:"latency"`
		Stages  map[string]json.RawMessage `json:"stages"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Latency["search"].Count == 0 {
		t.Errorf("stats latency has no search observations: %s", body)
	}
	if out.Latency["search"].P99MS <= 0 {
		t.Errorf("search p99 = %v, want > 0", out.Latency["search"].P99MS)
	}
	for _, stage := range []string{"lookup", "explore"} {
		if _, ok := out.Stages[stage]; !ok {
			t.Errorf("stats stages missing %q: %s", stage, body)
		}
	}
	if out.Runtime.Goroutines < 1 {
		t.Errorf("runtime goroutines = %d", out.Runtime.Goroutines)
	}
}

func TestMetricsHistogramAndRuntimeExposition(t *testing.T) {
	ts := httptest.NewServer(testServer(t, Config{}).Handler())
	defer ts.Close()
	if status, _ := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}}); status != http.StatusOK {
		t.Fatal("search failed")
	}
	status, body := getBody(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE searchwebdb_request_seconds histogram",
		`searchwebdb_request_seconds_bucket{endpoint="search",le="`,
		`searchwebdb_request_seconds_bucket{endpoint="search",le="+Inf"}`,
		"# TYPE searchwebdb_stage_seconds histogram",
		`searchwebdb_stage_seconds_bucket{stage="explore",le="`,
		"go_goroutines ",
		`go_gc_pause_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
