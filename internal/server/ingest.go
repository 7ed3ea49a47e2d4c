package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/ingest"
	"repro/internal/rdf"
)

// ---------------------------------------------------------------------------
// POST /v1/ingest

// tripleJSON is one RDF triple on the ingest wire, reusing the termJSON
// shape /v1/execute answers with — what a client reads out of an execute
// response round-trips into an ingest request.
type tripleJSON struct {
	S termJSON `json:"s"`
	P termJSON `json:"p"`
	O termJSON `json:"o"`
}

// ingestRequest is the JSON body shape: a batch under "triples", or a
// single triple object at the top level (single + batch both accepted).
// TTL ("250ms", "24h", …) arms per-batch retention; it can also ride
// the ?ttl= query parameter for the NDJSON and N-Triples encodings.
type ingestRequest struct {
	tripleJSON
	Triples []tripleJSON `json:"triples,omitempty"`
	TTL     string       `json:"ttl,omitempty"`
}

type ingestResponse struct {
	// Received is how many triples the request carried; Added how many
	// were previously unknown (duplicates are acknowledged but inert).
	Received int `json:"received"`
	Added    int `json:"added"`
	// Seq is the WAL sequence the batch was acknowledged under —
	// durability proof a producer can log.
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	// DeltaTriples is the un-merged overlay size after this batch;
	// Swapped reports whether the batch pushed it over the threshold and
	// the indexes were merged synchronously.
	DeltaTriples int     `json:"delta_triples"`
	Swapped      bool    `json:"swapped"`
	Triples      int     `json:"triples"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// toTerm decodes a wire term; role names the slot in error messages.
func (tj termJSON) toTerm(role string) (rdf.Term, error) {
	switch tj.Kind {
	case "iri", "": // IRI is the unmarked default, mirroring toTermJSON
		if tj.Value == "" {
			return rdf.Term{}, fmt.Errorf("%s: empty term", role)
		}
		return rdf.NewIRI(tj.Value), nil
	case "blank":
		return rdf.NewBlank(tj.Value), nil
	case "literal":
		switch {
		case tj.Lang != "":
			return rdf.NewLangLiteral(tj.Value, tj.Lang), nil
		case tj.Datatype != "":
			return rdf.NewTypedLiteral(tj.Value, tj.Datatype), nil
		default:
			return rdf.NewLiteral(tj.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("%s: unknown term kind %q (want iri, literal, or blank)", role, tj.Kind)
	}
}

func (tj tripleJSON) toTriple(i int) (rdf.Triple, error) {
	s, err := tj.S.toTerm(fmt.Sprintf("triple %d subject", i))
	if err != nil {
		return rdf.Triple{}, err
	}
	p, err := tj.P.toTerm(fmt.Sprintf("triple %d predicate", i))
	if err != nil {
		return rdf.Triple{}, err
	}
	if !p.IsIRI() {
		return rdf.Triple{}, fmt.Errorf("triple %d predicate: must be an iri", i)
	}
	o, err := tj.O.toTerm(fmt.Sprintf("triple %d object", i))
	if err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{S: s, P: p, O: o}, nil
}

// decodeIngestBody parses the request into one batch plus its TTL (0 =
// none given). Three encodings: NDJSON (one triple object per line),
// raw N-Triples text, or a JSON body (single triple or
// {"triples": [...], "ttl": "24h"}). A ?ttl= query parameter applies to
// every encoding; the JSON body field wins when both are present.
func decodeIngestBody(r *http.Request) ([]rdf.Triple, time.Duration, error) {
	ttl, err := parseTTL(r.URL.Query().Get("ttl"))
	if err != nil {
		return nil, 0, err
	}
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.Contains(ct, "application/x-ndjson"):
		var ts []rdf.Triple
		dec := json.NewDecoder(r.Body)
		for i := 0; ; i++ {
			var tj tripleJSON
			if err := dec.Decode(&tj); err == io.EOF {
				return ts, ttl, nil
			} else if err != nil {
				return nil, 0, fmt.Errorf("ndjson line %d: %w", i+1, err)
			}
			t, err := tj.toTriple(i)
			if err != nil {
				return nil, 0, err
			}
			ts = append(ts, t)
		}
	case strings.Contains(ct, "application/n-triples"):
		ts, err := rdf.NewNTriplesReader(r.Body).ReadAll()
		return ts, ttl, err
	default:
		var req ingestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, 0, err
		}
		if req.TTL != "" {
			if ttl, err = parseTTL(req.TTL); err != nil {
				return nil, 0, err
			}
		}
		if len(req.Triples) > 0 {
			ts := make([]rdf.Triple, len(req.Triples))
			for i, tj := range req.Triples {
				t, err := tj.toTriple(i)
				if err != nil {
					return nil, 0, err
				}
				ts[i] = t
			}
			return ts, ttl, nil
		}
		t, err := req.tripleJSON.toTriple(0)
		if err != nil {
			return nil, 0, err
		}
		return []rdf.Triple{t}, ttl, nil
	}
}

// parseTTL validates a ttl spelling ("" = none).
func parseTTL(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("ttl: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("ttl: must be positive, got %q", s)
	}
	return d, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{
			Error: "this backend is sealed read-only; boot serverd with -wal to enable live ingestion",
			Code:  "read_only"})
		return
	}
	ts, ttl, err := decodeIngestBody(r)
	if err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if len(ts) == 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "request carries no triples", Code: "bad_request"})
		return
	}
	start := time.Now()
	swapsBefore := s.live.Swaps()
	added, seq, err := s.live.IngestTTL(ts, ttl)
	if err != nil {
		s.writeIngestError(w, err)
		return
	}
	s.mIngested.Add(uint64(len(ts)))
	writeJSON(w, http.StatusOK, ingestResponse{
		Received:     len(ts),
		Added:        added,
		Seq:          seq,
		Epoch:        s.live.Epoch(),
		DeltaTriples: s.live.DeltaTriples(),
		Swapped:      s.live.Swaps() > swapsBefore,
		Triples:      s.live.NumTriples(),
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	})
}

// writeIngestError maps a refused write onto the disk-degradation
// error taxonomy. Poisoned-WAL and disk-full refusals are 503s with
// distinct codes — the store still serves reads, and (for disk_full) a
// retry may succeed once space frees; anything else is the generic 500.
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrWALPoisoned):
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Code: ingest.ReadOnlyFsync})
	case errors.Is(err, ingest.ErrDiskFull):
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Code: ingest.ReadOnlyDiskFull})
	default:
		// The WAL refused (or the post-ack swap failed): nothing to serve
		// but the truth. 500 — the client must not assume durability.
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: err.Error(), Code: "ingest_failed"})
	}
}

// ---------------------------------------------------------------------------
// POST /v1/checkpoint

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{
			Error: "this backend is sealed read-only; boot serverd with -wal to enable checkpoints",
			Code:  "read_only"})
		return
	}
	res, err := s.live.Checkpoint()
	if err != nil {
		s.writeIngestError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// ---------------------------------------------------------------------------
// Keyword-matched cache invalidation

// isDigitsToken mirrors the keyword index's rule that fuzzy matching
// never applies to pure-digit tokens ("2006" must not match "2007").
func isDigitsToken(tok string) bool {
	for _, r := range tok {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(tok) > 0
}

// fuzzyBound mirrors keywordindex.LookupOptions: edit distance 1 for
// tokens of length ≤ 5, else 2, and 0 (exact only) for digit tokens.
func fuzzyBound(tok string) int {
	if isDigitsToken(tok) {
		return 0
	}
	if len(tok) <= 5 {
		return 1
	}
	return 2
}

// keywordsTouch reports whether any analyzed token of the cached keyword
// list could have matched a changed label token — exactly or within the
// index's fuzzy edit-distance bounds. Thesaurus expansion is not chased:
// semantic matches route through the same label tokens at lookup time,
// and a synonym-only dependency is bounded by the cache TTL like any
// sealed-deploy staleness.
func keywordsTouch(keywords []string, changedSet map[string]struct{}, changed []string) bool {
	for _, kw := range keywords {
		for _, tok := range analysis.AnalyzeKeyword(kw) {
			if _, ok := changedSet[tok]; ok {
				return true
			}
			max := fuzzyBound(tok)
			if max == 0 {
				continue
			}
			for _, c := range changed {
				if isDigitsToken(c) {
					continue
				}
				if analysis.BoundedLevenshtein(tok, c, max) <= max {
					return true
				}
			}
		}
	}
	return false
}

// InvalidateKeywords drops every cached search whose keywords touch one
// of the changed label tokens (the stemmed output of an epoch swap's
// ChangedKeywords), and with it the candidate ids it handed out, and
// returns how many search entries were dropped. Entries whose keywords
// are disjoint from the change survive — a swap does not empty the
// cache, it surgically removes what it may have made stale (including
// cached no-match outcomes the new data could now satisfy).
func (s *Server) InvalidateKeywords(changed []string) int {
	if len(changed) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(changed))
	for _, c := range changed {
		set[c] = struct{}{}
	}
	return s.searchCache.Invalidate(func(_ string, val any) bool {
		return keywordsTouch(val.(*searchEntry).resp.Keywords, set, changed)
	})
}

// flushResultCache empties the result cache, and with it every candidate
// id — the retention-merge hammer: a merge that *dropped* rows can stale
// any cached result, so surgical keyword matching does not apply.
func (s *Server) flushResultCache() int {
	return s.searchCache.Invalidate(func(string, any) bool { return true })
}

// bindLive wires a live backend into the server: epoch/fsync/swap/
// checkpoint metrics and swap-driven cache invalidation. Called once
// from New.
func (s *Server) bindLive(l *ingest.Live) {
	s.live = l
	s.mEpoch.Set(int64(l.Epoch()))
	l.SetObservers(func(o ingest.SwapObservation) {
		s.mEpoch.Set(int64(o.Epoch))
		s.mSwapSeconds.Observe(o.Duration.Seconds())
		s.mExpired.Add(uint64(o.Expired))
		var n int
		if o.RetentionMerge {
			n = s.flushResultCache()
		} else {
			n = s.InvalidateKeywords(o.ChangedKeywords)
		}
		s.mInvalidated.Add(uint64(n))
	}, func(d time.Duration) {
		s.mFsync.Observe(d.Seconds())
	}, func(res ingest.CheckpointResult, err error) {
		if err == nil && !res.Skipped {
			s.mCheckpointSeconds.Observe(res.Duration.Seconds())
		}
	})
}

// refreshIngestGauges re-reads the live backend's current state into the
// scrape-refreshed gauges. No-op for sealed backends.
func (s *Server) refreshIngestGauges() {
	if s.live == nil {
		return
	}
	s.mEpoch.Set(int64(s.live.Epoch()))
	s.mTriples.Set(int64(s.live.NumTriples()))
	w := s.live.WAL()
	s.mWALSize.Set(w.SizeBytes())
	s.mWALSegments.Set(int64(w.Segments()))
	if age := s.live.CheckpointAge(); age >= 0 {
		s.mCheckpointAge.Set(age.Seconds())
	}
}

// ingestStatsJSON renders the /stats and /healthz ingest blocks.
func (s *Server) ingestStatsJSON(detailed bool) map[string]any {
	l := s.live
	if l == nil {
		return nil
	}
	w := l.WAL()
	out := map[string]any{
		"epoch":                  l.Epoch(),
		"delta_triples":          l.DeltaTriples(),
		"swaps":                  l.Swaps(),
		"ingested_triples_total": l.IngestedTriples(),
		"wal": map[string]any{
			"segments":   w.Segments(),
			"size_bytes": w.SizeBytes(),
			"next_seq":   w.NextSeq(),
			"low_water":  l.LowWater(),
		},
		"checkpoint": s.checkpointStatsJSON(),
	}
	if ro := l.ReadOnlyReason(); ro != "" {
		out["read_only"] = ro
	}
	if detailed {
		out["epoch_max_delta"] = l.EpochMaxDelta()
		out["cache_invalidated_total"] = s.mInvalidated.Value()
		out["wal"] = map[string]any{
			"dir":        w.Dir(),
			"segments":   w.Segments(),
			"size_bytes": w.SizeBytes(),
			"next_seq":   w.NextSeq(),
			"low_water":  l.LowWater(),
			"fsync":      w.Fsync().String(),
		}
		out["retention"] = map[string]any{
			"retained_triples": l.RetainedTriples(),
			"expired_total":    l.ExpiredTotal(),
			"expired_pending":  l.ExpiredPending(),
		}
		out["fsync_seconds"] = histQuantiles(s.mFsync)
		out["swap_seconds"] = histQuantiles(s.mSwapSeconds)
	}
	return out
}

// checkpointStatsJSON renders the checkpoint block of /stats and
// /healthz.
func (s *Server) checkpointStatsJSON() map[string]any {
	cs := s.live.CheckpointStats()
	out := map[string]any{
		"count":         cs.Count,
		"low_water_seq": s.live.LowWater(),
	}
	if cs.Count > 0 {
		out["last_unix"] = cs.LastUnix
		out["last_seconds"] = cs.LastDuration
		out["snapshot"] = cs.LastSnapshot
		out["segments_removed_total"] = cs.SegmentsRemoved
		out["bytes_removed_total"] = cs.BytesRemoved
		if age := s.live.CheckpointAge(); age >= 0 {
			out["age_seconds"] = age.Seconds()
		}
	}
	if cs.LastError != "" {
		out["last_error"] = cs.LastError
	}
	return out
}

// ---------------------------------------------------------------------------
// Boot readiness gate

// Gate is the handler a WAL-booting serverd mounts before recovery
// finishes: /healthz answers 503 with "status":"replaying" and the WAL
// replay progress, every other path answers 503 "replaying", and once
// Ready installs the real handler the gate becomes a transparent
// delegate. Readiness probes key off the status code, dashboards off
// the progress block.
type Gate struct {
	start time.Time

	mu       sync.Mutex
	progress *ingest.ReplayProgress

	ready   chan struct{} // closed by Ready
	handler http.Handler  // set before ready is closed
}

// NewGate returns a gate in the not-ready state.
func NewGate() *Gate {
	return &Gate{start: time.Now(), ready: make(chan struct{})}
}

// SetProgress records the latest replay progress (safe to call
// concurrently with serving).
func (g *Gate) SetProgress(p ingest.ReplayProgress) {
	g.mu.Lock()
	g.progress = &p
	g.mu.Unlock()
}

// Ready installs the real handler; every subsequent request delegates.
func (g *Gate) Ready(h http.Handler) {
	g.handler = h
	close(g.ready)
}

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-g.ready:
		g.handler.ServeHTTP(w, r)
		return
	default:
	}
	if r.URL.Path == "/healthz" {
		body := map[string]any{
			"status":         "replaying",
			"uptime_seconds": time.Since(g.start).Seconds(),
		}
		g.mu.Lock()
		if g.progress != nil {
			body["replay"] = *g.progress
			body["percent"] = g.progress.Percent()
		}
		g.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: "recovering: WAL replay in progress, no epoch servable yet",
		Code:  "replaying"})
}
