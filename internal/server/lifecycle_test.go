package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerPanicRecovered drives a panicking handler through the full
// instrumentation stack: the client gets a 500 with code "panic", the
// panic counter moves, and — because the request errored — the slowlog
// captures it. The server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	s := testServer(t, Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.instrument("search", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	status, body := postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"x"}})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "panic" || !strings.Contains(er.Error, "boom") {
		t.Fatalf("error response %+v", er)
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// A second request proves the process survived the panic.
	status, body = getBody(t, ts, "/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "searchwebdb_panics_total 1") {
		t.Fatalf("metrics after panic: %d %s", status, body)
	}
	// The erroring request landed in the slowlog with its body head.
	status, body = getBody(t, ts, "/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("slowlog status %d", status)
	}
	var slow struct {
		RecentErrors []struct {
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Error    string `json:"error,omitempty"`
		} `json:"recent_errors"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range slow.RecentErrors {
		if e.Endpoint == "search" && e.Status == http.StatusInternalServerError {
			found = true
		}
	}
	if !found {
		t.Fatalf("panicking request not captured in slowlog: %s", body)
	}
}

// TestMaxBodyBytes caps the request body: an oversized /v1/search POST
// is answered 413 with code "body_too_large"; a small one still works.
func TestMaxBodyBytes(t *testing.T) {
	s := testServer(t, Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := searchRequest{Keywords: []string{strings.Repeat("x", 1024)}}
	status, body := postJSON(t, ts, "/v1/search", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "body_too_large" {
		t.Fatalf("error response %+v", er)
	}
	status, _ = postJSON(t, ts, "/v1/search", searchRequest{Keywords: []string{"publication"}})
	if status != http.StatusOK {
		t.Fatalf("small body after 413: status %d", status)
	}
}

// TestGracefulDrain serves over a real http.Server, parks a slow request
// in flight (a search handler that sleeps before answering), then calls
// Shutdown: the in-flight request must complete normally before the
// listener dies.
func TestGracefulDrain(t *testing.T) {
	s := testServer(t, Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.instrument("search", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		s.handleSearch(w, r)
	}))
	srv := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(searchRequest{Keywords: []string{"publication", "title"}})
		resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	// Give the request time to reach the handler, then start draining.
	time.Sleep(100 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain", r.status)
	}
	// The listener is closed: new connections must be refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server accepted a connection after drain")
	}
}

// TestExecuteNDJSONStreaming asks /v1/execute for NDJSON: the body must
// be a header line, one line per row, and a trailer line — parseable
// incrementally.
func TestExecuteNDJSONStreaming(t *testing.T) {
	for name, srv := range map[string]*Server{
		"single": testServer(t, Config{}),
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			body, _ := json.Marshal(executeRequest{
				candidateRef: candidateRef{Keywords: []string{"publication", "title"}, Rank: 0},
				Limit:        10,
			})
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", "application/x-ndjson")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("content type %q", ct)
			}
			dec := json.NewDecoder(resp.Body)
			var header executeStreamHeader
			if err := dec.Decode(&header); err != nil {
				t.Fatalf("header: %v", err)
			}
			if len(header.Vars) == 0 || header.SPARQL == "" {
				t.Fatalf("bad header: %+v", header)
			}
			rows := 0
			var trailer executeStreamTrailer
			for {
				var raw json.RawMessage
				if err := dec.Decode(&raw); err != nil {
					t.Fatalf("line %d: %v", rows+1, err)
				}
				if raw[0] == '[' {
					var row []termJSON
					if err := json.Unmarshal(raw, &row); err != nil {
						t.Fatalf("row %d: %v", rows, err)
					}
					if len(row) != len(header.Vars) {
						t.Fatalf("row %d has %d terms, want %d", rows, len(row), len(header.Vars))
					}
					rows++
					continue
				}
				if err := json.Unmarshal(raw, &trailer); err != nil {
					t.Fatalf("trailer: %v", err)
				}
				break
			}
			if trailer.Count != rows {
				t.Fatalf("trailer count %d, streamed %d rows", trailer.Count, rows)
			}
			if rows == 0 {
				t.Fatal("no rows streamed")
			}
			// Nothing may follow the trailer.
			if dec.More() {
				t.Fatal("data after trailer")
			}
		})
	}
}

// TestSearchCacheTTL exercises the server-level TTL knob: a repeated
// search within the TTL is served from the cache, after the TTL it is
// recomputed (entries expire without LRU pressure).
func TestSearchCacheTTL(t *testing.T) {
	s := testServer(t, Config{CacheTTL: 80 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := searchRequest{Keywords: []string{"publication", "2006"}}
	var resp searchResponse
	_, body := postJSON(t, ts, "/v1/search", req)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first search must not be cached")
	}
	_, body = postJSON(t, ts, "/v1/search", req)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("immediate repeat must hit the cache")
	}
	time.Sleep(150 * time.Millisecond)
	_, body = postJSON(t, ts, "/v1/search", req)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("search after TTL expiry must recompute")
	}
}
