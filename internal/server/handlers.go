package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// writeDecodeError classifies a request-body decode failure: a body that
// blew the MaxBodyBytes cap is 413, anything else is a plain 400.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			Code:  "body_too_large"})
		return
	}
	writeJSON(w, http.StatusBadRequest,
		errorResponse{Error: "malformed request body: " + err.Error(), Code: "bad_request"})
}

// ---------------------------------------------------------------------------
// Wire types

type searchRequest struct {
	Keywords []string `json:"keywords"`
	// K overrides the number of candidates (≤ 0: server default, capped
	// at Config.MaxK).
	K int `json:"k,omitempty"`
	// TimeoutMS overrides the request deadline (≤ 0: server default,
	// capped at Config.MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type candidateJSON struct {
	ID          string  `json:"id"`
	Rank        int     `json:"rank"`
	Cost        float64 `json:"cost"`
	Description string  `json:"description"`
	SPARQL      string  `json:"sparql"`
}

type searchResponse struct {
	QueryID     string          `json:"query_id"`
	Keywords    []string        `json:"keywords"`
	K           int             `json:"k"`
	Candidates  []candidateJSON `json:"candidates"`
	Unmatched   []string        `json:"unmatched,omitempty"`
	MatchCounts []int           `json:"match_counts,omitempty"`
	Guaranteed  bool            `json:"guaranteed"`
	Cached      bool            `json:"cached"`
	Shared      bool            `json:"shared,omitempty"`
	ElapsedMS   float64         `json:"elapsed_ms"`
	// Exploration reports how the top-k exploration behind this result
	// went (from the original computation when Cached). Cache hits keep
	// the entry's numbers: they describe the result being served.
	Exploration *explorationJSON `json:"exploration,omitempty"`
	// Trace is this request's span tree, present when the request asked
	// for it with ?trace=1. Cache hits and followers trace their own
	// (short) request, not the original computation.
	Trace []*trace.Node `json:"trace,omitempty"`
}

// explorationJSON is the per-search view of core.Stats: why the query
// ended (TA bound vs exhaustion vs MaxPops vs deadline), what it cost,
// and what the always-on oracle pruning contributed.
type explorationJSON struct {
	Terminated      string  `json:"terminated"`
	CursorsCreated  int     `json:"cursors_created"`
	CursorsPopped   int     `json:"cursors_popped"`
	ElementsVisited int     `json:"elements_visited"`
	Candidates      int     `json:"candidates_generated"`
	OracleUsed      bool    `json:"oracle_used"`
	OracleBuildMS   float64 `json:"oracle_build_ms,omitempty"`
}

// candidateRef selects a query to execute or explain: by candidate id
// from an earlier search, by keywords + rank (re-using the search cache),
// or as an inline conjunctive query.
type candidateRef struct {
	ID       string     `json:"id,omitempty"`
	Keywords []string   `json:"keywords,omitempty"`
	K        int        `json:"k,omitempty"`
	Rank     int        `json:"rank,omitempty"`
	Query    *queryJSON `json:"query,omitempty"`
}

type executeRequest struct {
	candidateRef
	// Limit caps distinct answers (≤ 0: server default; capped at
	// Config.MaxLimit).
	Limit     int `json:"limit,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type termJSON struct {
	Kind     string `json:"kind"` // "iri" | "literal" | "blank"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

type executeResponse struct {
	ID        string       `json:"id,omitempty"`
	SPARQL    string       `json:"sparql"`
	Vars      []string     `json:"vars"`
	Rows      [][]termJSON `json:"rows"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated"`
	ElapsedMS float64      `json:"elapsed_ms"`
	// Execution reports how the join evaluation behind this result went,
	// mirroring the search response's exploration block.
	Execution *executionJSON `json:"execution,omitempty"`
	// Trace is this request's span tree, present under ?trace=1.
	Trace []*trace.Node `json:"trace,omitempty"`
}

// executionJSON is the per-execute view of exec.ExecStats: the join work
// spent, the fully joined bindings examined, how many were duplicate
// answers, and — when the result is truncated — which bound cut it off
// (limit, max_rows, step_budget).
type executionJSON struct {
	JoinIterations   int64  `json:"join_iterations"`
	RowsExamined     int64  `json:"rows_examined"`
	RowsDeduped      int64  `json:"rows_deduped"`
	TruncationReason string `json:"truncation_reason,omitempty"`
}

func toExecutionJSON(rs *exec.ResultSet) *executionJSON {
	return &executionJSON{
		JoinIterations:   rs.Stats.JoinIterations,
		RowsExamined:     rs.Stats.RowsExamined,
		RowsDeduped:      rs.Stats.RowsDeduped,
		TruncationReason: string(rs.Stats.TruncatedBy),
	}
}

type planStepJSON struct {
	Atom       string `json:"atom"`
	Tier       int    `json:"tier"`
	EstMatches int    `json:"est_matches"`
}

type explainResponse struct {
	ID     string         `json:"id,omitempty"`
	SPARQL string         `json:"sparql"`
	Empty  bool           `json:"empty"`
	Steps  []planStepJSON `json:"steps"`
	Text   string         `json:"text"`
	// Trace is this request's span tree, present under ?trace=1.
	Trace []*trace.Node `json:"trace,omitempty"`
}

// queryJSON is an inline conjunctive query. Each argument is exactly one
// of a variable, an IRI, or a literal.
type queryJSON struct {
	Atoms         []atomJSON   `json:"atoms"`
	Distinguished []string     `json:"distinguished,omitempty"`
	Filters       []filterJSON `json:"filters,omitempty"`
}

type atomJSON struct {
	S argJSON `json:"s"`
	P argJSON `json:"p"`
	O argJSON `json:"o"`
}

type argJSON struct {
	Var      string  `json:"var,omitempty"`
	IRI      string  `json:"iri,omitempty"`
	Literal  *string `json:"literal,omitempty"`
	Datatype string  `json:"datatype,omitempty"`
	Lang     string  `json:"lang,omitempty"`
}

type filterJSON struct {
	Var   string  `json:"var"`
	Op    string  `json:"op"`
	Value float64 `json:"value"`
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// ---------------------------------------------------------------------------
// Routing and instrumentation

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.instrument("search", s.handleSearch))
	mux.HandleFunc("POST /v1/execute", s.instrument("execute", s.handleExecute))
	mux.HandleFunc("POST /v1/explain", s.instrument("explain", s.handleExplain))
	mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	mux.HandleFunc("POST /v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("GET /debug/buildinfo", s.instrument("buildinfo", s.handleBuildinfo))
	// The catch-all sees every request no more specific pattern took —
	// including known paths hit with the wrong method, which the mux
	// would otherwise route here as plain 404s.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/search", "/v1/execute", "/v1/explain", "/v1/ingest", "/v1/checkpoint":
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed,
				errorResponse{Error: r.URL.Path + " requires POST", Code: "method_not_allowed"})
		case "/healthz", "/stats", "/metrics", "/debug/slowlog", "/debug/buildinfo":
			w.Header().Set("Allow", http.MethodGet)
			writeJSON(w, http.StatusMethodNotAllowed,
				errorResponse{Error: r.URL.Path + " requires GET", Code: "method_not_allowed"})
		default:
			writeJSON(w, http.StatusNotFound,
				errorResponse{Error: "no such endpoint: " + r.URL.Path, Code: "not_found"})
		}
	})
	return mux
}

// statusWriter captures the response status for error accounting, plus
// the head of an error body so the slowlog can show what went wrong.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	errBody     []byte
}

// maxErrBody bounds the captured error body; error responses are short
// JSON objects, so this keeps whole messages without risking retention
// of a large body.
const maxErrBody = 512

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	if w.status >= 400 && len(w.errBody) < maxErrBody {
		take := maxErrBody - len(w.errBody)
		if take > len(p) {
			take = len(p)
		}
		w.errBody = append(w.errBody, p[:take]...)
	}
	return w.ResponseWriter.Write(p)
}

// tracedEndpoints are the query-serving endpoints that get a span tree,
// pprof labels, stage-histogram folding, and slowlog capture. The
// introspection endpoints stay on the cheap path.
func tracedEndpoint(endpoint string) bool {
	switch endpoint {
	case "search", "execute", "explain":
		return true
	}
	return false
}

func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	traced := tracedEndpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mRequests.With(endpoint).Inc()
		s.mInflight.Inc()
		defer s.mInflight.Dec()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		// Panic containment: a panicking handler answers 500 (when the
		// response is still unwritten), is counted, and — because the
		// status makes it an erroring request — lands in the slowlog with
		// its span tree. The process keeps serving.
		invoke := func(ctx context.Context) {
			defer func() {
				if p := recover(); p != nil {
					s.mPanics.Inc()
					if !sw.wroteHeader {
						writeJSON(sw, http.StatusInternalServerError, errorResponse{
							Error: fmt.Sprintf("internal panic: %v", p), Code: "panic"})
					} else {
						sw.status = http.StatusInternalServerError
					}
				}
			}()
			h(sw, r.WithContext(ctx))
		}
		if !traced {
			invoke(r.Context())
			s.mLatency.With(endpoint).Observe(time.Since(start).Seconds())
			if sw.status >= 400 {
				s.mErrors.With(endpoint).Inc()
			}
			return
		}

		// Query-serving path: every request carries a pooled trace — the
		// slowlog needs the span tree of requests only known to be slow
		// after the fact — and runs under a pprof endpoint label so CPU
		// profiles attribute samples to the serving endpoint.
		tr := trace.New(endpoint)
		ctx, cp := captureContext(tr.Context(r.Context()))
		pprof.Do(ctx, pprof.Labels("endpoint", endpoint), invoke)
		tr.Finish()
		elapsed := tr.Duration()
		s.mLatency.With(endpoint).Observe(elapsed.Seconds())
		// Fold the span durations into the per-stage histograms; the root
		// span is the request itself, already observed above.
		tr.EachSpan(func(name string, seconds float64) {
			if name != endpoint {
				s.mStageSeconds.With(name).Observe(seconds)
			}
		})
		if sw.status >= 400 {
			s.mErrors.With(endpoint).Inc()
		}
		s.slow.record(endpoint, cp.query, sw.status, string(sw.errBody), start, elapsed, tr)
		tr.Release()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// requestContext derives the per-request deadline from the optional
// client override, clamped to [0, MaxTimeout], defaulting to
// DefaultTimeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// isDeadline reports whether err is a context cancellation or deadline.
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// writeTimeout answers a request whose work was cut off at the deadline.
func (s *Server) writeTimeout(w http.ResponseWriter, what string) {
	s.mTimeouts.Inc()
	writeJSON(w, http.StatusGatewayTimeout,
		errorResponse{Error: what + " timed out", Code: "timeout"})
}

// errNoWorker marks a pool-acquisition failure so handlers can answer
// 503 (the server never started the work) rather than 504 (the work was
// cut off). The caller's context error is joined in so doSearch's
// follower-retry logic still recognizes an inherited deadline.
var errNoWorker = errors.New("no worker available before the deadline")

// acquireWorker blocks for a pool slot until ctx is done.
func (s *Server) acquireWorker(ctx context.Context) error {
	if err := s.pool.acquire(ctx); err != nil {
		return errors.Join(errNoWorker, err)
	}
	return nil
}

// writeOverloaded answers a request that never got a worker slot.
func (s *Server) writeOverloaded(w http.ResponseWriter) {
	s.mRejected.Inc()
	writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: errNoWorker.Error(), Code: "overloaded"})
}

// ---------------------------------------------------------------------------
// Search

// searchEntry is one cached search: its search key (the cache is keyed
// by the key's hash, the query id), the executable candidates, and the
// pre-rendered response template (Cached/Shared cleared). Candidate ids
// resolve through it, so they live exactly as long as the entry.
type searchEntry struct {
	key   string
	cands []*engine.QueryCandidate
	resp  searchResponse
}

// cachedSearch returns the cached entry under a query id, refreshing
// its recency. The caller checks the entry's key or candidate ids: two
// keys can share a query id.
func (s *Server) cachedSearch(qid string) (*searchEntry, bool) {
	v, ok := s.searchCache.Get(qid)
	if !ok {
		return nil, false
	}
	return v.(*searchEntry), true
}

// cacheSearch stores an entry under its query id.
func (s *Server) cacheSearch(e *searchEntry) {
	s.searchCache.Put(e.resp.QueryID, e, e.size())
}

// doSearch runs the cached, deduplicated search pipeline for normalized
// keywords. Only the singleflight leader — the one caller that actually
// computes — takes a worker slot; cache hits and followers waiting on an
// in-flight computation hold none, so a pile-up on one hot query cannot
// starve unrelated requests of slots. hit and shared report how the
// result was obtained (cache, another request's in-flight computation,
// or computed here).
func (s *Server) doSearch(ctx context.Context, norm []string, k int) (entry *searchEntry, hit, shared bool, err error) {
	key := searchKey(norm, k)
	qid := queryIDFor(key)
	for {
		if e, ok := s.cachedSearch(qid); ok && e.key == key {
			s.mCacheHits.Inc()
			return e, true, false, nil
		}
		v, err, wasShared := s.flight.Do(ctx, key, func() (any, error) {
			if err := s.acquireWorker(ctx); err != nil {
				return nil, err
			}
			defer s.pool.release()
			s.mCacheMisses.Inc()
			start := time.Now()
			// The query-shape pprof label makes CPU profiles separable by
			// keyword count — the dominant cost driver of exploration.
			var cands []*engine.QueryCandidate
			var info *engine.SearchInfo
			var err error
			pprof.Do(ctx, pprof.Labels("query_shape", "kw="+strconv.Itoa(len(norm))), func(ctx context.Context) {
				cands, info, err = s.eng.SearchKContext(ctx, norm, k)
			})
			var unmatched *engine.UnmatchedKeywordsError
			if errors.As(err, &unmatched) {
				// Not a failure, and deterministic on a sealed engine:
				// cache the no-match outcome so a hot misspelled query
				// doesn't recompute the full pipeline on every repeat.
				e := &searchEntry{key: key, resp: searchResponse{
					QueryID:    qid,
					Keywords:   norm,
					K:          k,
					Candidates: []candidateJSON{}, // render [] rather than null
					Unmatched:  unmatched.Keywords,
					ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
				}}
				if info != nil {
					e.resp.MatchCounts = info.MatchCounts
				}
				s.cacheSearch(e)
				return e, nil
			}
			if err != nil {
				// A deadline can cut exploration off mid-flight; the
				// cancelled termination still counts — it is exactly what
				// the terminated{reason} metric exists to show.
				s.observeExploration(info)
				return nil, err
			}
			s.observeExploration(info)
			e := &searchEntry{
				key:   key,
				cands: cands,
				resp: searchResponse{
					QueryID:     qid,
					Keywords:    norm,
					K:           k,
					Candidates:  make([]candidateJSON, len(cands)),
					MatchCounts: info.MatchCounts,
					Guaranteed:  info.Guaranteed,
					ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
					Exploration: &explorationJSON{
						Terminated:      info.Exploration.Terminated.String(),
						CursorsCreated:  info.Exploration.CursorsCreated,
						CursorsPopped:   info.Exploration.CursorsPopped,
						ElementsVisited: info.Exploration.ElementsVisited,
						Candidates:      info.Exploration.Candidates,
						OracleUsed:      info.Exploration.OracleUsed,
						OracleBuildMS:   float64(info.OracleBuild.Microseconds()) / 1000,
					},
				},
			}
			for i, c := range cands {
				e.resp.Candidates[i] = candidateJSON{
					ID:          fmt.Sprintf("%s-%d", e.resp.QueryID, i),
					Rank:        i,
					Cost:        c.Cost,
					Description: c.Describe(),
					SPARQL:      c.SPARQL(),
				}
			}
			s.cacheSearch(e)
			return e, nil
		})
		if err != nil {
			// A follower that inherited the leader's cancellation while
			// still having time on its own clock retries as a new leader.
			if wasShared && isDeadline(err) && ctx.Err() == nil {
				continue
			}
			return nil, false, wasShared, err
		}
		if wasShared {
			s.mFlightShared.Inc()
		}
		return v.(*searchEntry), false, wasShared, nil
	}
}

// clampK resolves a per-request k against the engine default and MaxK.
func (s *Server) clampK(k int) int {
	if k <= 0 {
		k = s.eng.Config().K
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	return k
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	norm := normalizeKeywords(req.Keywords)
	if len(norm) == 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "keywords must contain at least one non-empty term", Code: "bad_request"})
		return
	}
	if len(norm) > s.cfg.MaxKeywords {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("at most %d keywords are allowed", s.cfg.MaxKeywords), Code: "bad_request"})
		return
	}
	k := s.clampK(req.K)

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	setCaptureQuery(ctx, strings.Join(norm, " "))

	entry, hit, shared, err := s.doSearch(ctx, norm, k)
	if err != nil {
		switch {
		case errors.Is(err, errNoWorker):
			s.writeOverloaded(w)
		case isDeadline(err):
			s.writeTimeout(w, "search")
		default:
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: err.Error(), Code: "internal"})
		}
		return
	}
	resp := entry.resp
	resp.Cached = hit
	resp.Shared = shared
	if wantTrace(r) {
		resp.Trace = traceNodes(ctx)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// Execute and explain

// resolveCandidate turns a candidateRef into an executable candidate. On
// failure it answers the request and returns nil.
func (s *Server) resolveCandidate(ctx context.Context, w http.ResponseWriter, ref candidateRef) (*engine.QueryCandidate, string) {
	switch {
	case ref.ID != "":
		if qid, rank, ok := splitCandidateID(ref.ID); ok {
			if e, ok := s.cachedSearch(qid); ok && rank >= 0 && rank < len(e.cands) &&
				e.resp.Candidates[rank].ID == ref.ID {
				return e.cands[rank], ref.ID
			}
		}
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "unknown candidate id " + ref.ID + " (expired from the cache? re-run the search)",
			Code:  "unknown_candidate"})
		return nil, ""
	case ref.Query != nil:
		q, err := ref.Query.toQuery()
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: err.Error(), Code: "bad_query"})
			return nil, ""
		}
		return &engine.QueryCandidate{Query: q}, ""
	case len(ref.Keywords) > 0:
		norm := normalizeKeywords(ref.Keywords)
		if len(norm) == 0 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "keywords must contain at least one non-empty term", Code: "bad_request"})
			return nil, ""
		}
		k := s.clampK(ref.K)
		entry, _, _, err := s.doSearch(ctx, norm, k)
		if err != nil {
			switch {
			case errors.Is(err, errNoWorker):
				s.writeOverloaded(w)
			case isDeadline(err):
				s.writeTimeout(w, "search")
			default:
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: err.Error(), Code: "internal"})
			}
			return nil, ""
		}
		if len(entry.resp.Unmatched) > 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: (&engine.UnmatchedKeywordsError{Keywords: entry.resp.Unmatched}).Error(),
				Code:  "unmatched_keywords"})
			return nil, ""
		}
		if ref.Rank < 0 || ref.Rank >= len(entry.cands) {
			writeJSON(w, http.StatusNotFound, errorResponse{
				Error: fmt.Sprintf("no candidate at rank %d (search produced %d)", ref.Rank, len(entry.cands)),
				Code:  "no_such_rank"})
			return nil, ""
		}
		return entry.cands[ref.Rank], entry.resp.Candidates[ref.Rank].ID
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: "request must name a candidate id, keywords, or an inline query",
			Code:  "bad_request"})
		return nil, ""
	}
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = s.cfg.DefaultLimit
	}
	if limit > s.cfg.MaxLimit {
		limit = s.cfg.MaxLimit
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Resolution manages its own worker slot (only when it has to run a
	// search); the execution below takes one of its own. Acquiring here
	// and again inside doSearch would self-deadlock on a size-1 pool.
	cand, id := s.resolveCandidate(ctx, w, req.candidateRef)
	if cand == nil {
		return
	}
	setCaptureQuery(ctx, cand.SPARQL())
	if err := s.acquireWorker(ctx); err != nil {
		s.writeOverloaded(w)
		return
	}
	defer s.pool.release()
	start := time.Now()
	var rs *exec.ResultSet
	var err error
	pprof.Do(ctx, pprof.Labels("query_shape", "atoms="+strconv.Itoa(len(cand.Query.Atoms))), func(ctx context.Context) {
		rs, err = s.eng.ExecuteLimitContext(ctx, cand, limit)
	})
	if err != nil {
		if isDeadline(err) {
			s.writeTimeout(w, "execution")
			return
		}
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Code: "bad_query"})
		return
	}
	s.observeExecution(rs)
	var tn []*trace.Node
	if wantTrace(r) {
		tn = traceNodes(ctx)
	}
	if wantsNDJSON(r) {
		s.writeExecuteNDJSON(w, id, cand, rs, start, tn)
		return
	}
	resp := executeResponse{
		ID:        id,
		SPARQL:    cand.SPARQL(),
		Vars:      rs.Vars,
		Rows:      make([][]termJSON, len(rs.Rows)),
		Count:     rs.Len(),
		Truncated: rs.Truncated,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Execution: toExecutionJSON(rs),
		Trace:     tn,
	}
	for i, row := range rs.Rows {
		out := make([]termJSON, len(row))
		for j, t := range row {
			out[j] = toTermJSON(t)
		}
		resp.Rows[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// NDJSON streaming

// wantsNDJSON reports whether the client asked for a newline-delimited
// streaming response body.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// wantTrace reports whether the request asked for its span tree inline
// (?trace=1 on any /v1 endpoint).
func wantTrace(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1"
}

// traceNodes renders the request's span tree for an inline response. The
// trace is still open — instrument finishes it after the handler returns
// — so open spans are measured up to now; the only work missing from the
// rendered tree is the response encoding itself.
func traceNodes(ctx context.Context) []*trace.Node {
	if tr := trace.FromContext(ctx); tr != nil {
		return tr.Tree()
	}
	return nil
}

// executeStreamHeader is the first line of a streamed execute response.
type executeStreamHeader struct {
	ID     string   `json:"id,omitempty"`
	SPARQL string   `json:"sparql"`
	Vars   []string `json:"vars"`
}

// executeStreamTrailer is the last line of a streamed execute response.
type executeStreamTrailer struct {
	Count     int            `json:"count"`
	Truncated bool           `json:"truncated"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Execution *executionJSON `json:"execution,omitempty"`
	// Trace is the request's span tree, present under ?trace=1.
	Trace []*trace.Node `json:"trace,omitempty"`
}

// streamFlushEvery is how many row lines go out between flushes: small
// enough that a slowly consumed large answer set arrives incrementally,
// large enough that flush syscalls don't dominate.
const streamFlushEvery = 64

// writeExecuteNDJSON streams an execute result as NDJSON: a header object
// with the variables, one JSON array per answer row, and a trailing
// summary object — flushed incrementally, so a large answer set never
// buffers as one JSON body on either side of the connection.
func (s *Server) writeExecuteNDJSON(w http.ResponseWriter, id string, cand *engine.QueryCandidate, rs *exec.ResultSet, start time.Time, tn []*trace.Node) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// Encode appends the newline NDJSON needs; write errors mean the
	// connection died, and the remaining lines die with it.
	_ = enc.Encode(executeStreamHeader{ID: id, SPARQL: cand.SPARQL(), Vars: rs.Vars})
	flush()
	row := make([]termJSON, 0, len(rs.Vars))
	for i, r := range rs.Rows {
		row = row[:0]
		for _, t := range r {
			row = append(row, toTermJSON(t))
		}
		_ = enc.Encode(row)
		if (i+1)%streamFlushEvery == 0 {
			flush()
		}
	}
	_ = enc.Encode(executeStreamTrailer{
		Count:     rs.Len(),
		Truncated: rs.Truncated,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Execution: toExecutionJSON(rs),
		Trace:     tn,
	})
	flush()
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// Explain is pure planning (compile + join ordering, no joins), too
	// cheap to be worth a worker slot; resolution takes one internally
	// only if it must run a search.
	cand, id := s.resolveCandidate(ctx, w, req.candidateRef)
	if cand == nil {
		return
	}
	setCaptureQuery(ctx, cand.SPARQL())
	plan, err := s.eng.Explain(cand)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Code: "bad_query"})
		return
	}
	resp := explainResponse{
		ID:     id,
		SPARQL: cand.SPARQL(),
		Empty:  plan.Empty,
		Steps:  make([]planStepJSON, len(plan.Steps)),
		Text:   plan.String(),
	}
	if wantTrace(r) {
		resp.Trace = traceNodes(ctx)
	}
	for i, st := range plan.Steps {
		resp.Steps[i] = planStepJSON{Atom: st.Atom.String(), Tier: st.Tier, EstMatches: st.EstMatches}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// Introspection

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"sealed":         s.eng.Sealed(),
		"triples":        s.eng.NumTriples(),
		"uptime_seconds": s.Uptime().Seconds(),
		"snapshot":       s.snapshotJSON(false),
	}
	if ib := s.ingestStatsJSON(false); ib != nil {
		body["ingest"] = ib
		// A disk-degraded live backend still answers 200 — reads are
		// healthy — but flags itself so operators and write-path load
		// balancers can see the latch.
		if ro := s.live.ReadOnlyReason(); ro != "" {
			body["status"] = "read_only"
			body["read_only"] = ro
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// histQuantiles renders one latency histogram's tail summary for /stats.
func histQuantiles(h *metrics.Histogram) map[string]any {
	return map[string]any{
		"count":  h.Count(),
		"sum_ms": h.Sum() * 1000,
		"p50_ms": h.Quantile(0.50) * 1000,
		"p95_ms": h.Quantile(0.95) * 1000,
		"p99_ms": h.Quantile(0.99) * 1000,
	}
}

// buildinfoJSON summarizes debug.ReadBuildInfo for /debug/buildinfo and
// the slowlog header: enough to identify exactly which binary produced a
// capture.
func buildinfoJSON() map[string]any {
	out := map[string]any{"available": false}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["available"] = true
	out["go_version"] = bi.GoVersion
	out["path"] = bi.Path
	out["main"] = map[string]any{"path": bi.Main.Path, "version": bi.Main.Version, "sum": bi.Main.Sum}
	settings := map[string]string{}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs", "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH", "-compiler":
			settings[kv.Key] = kv.Value
		}
	}
	out["settings"] = settings
	return out
}

// slowlogPayload is the JSON body of /debug/slowlog, shared with the
// shutdown flush (Server.WriteSlowlog).
func (s *Server) slowlogPayload() map[string]any {
	slowest, errs := s.slow.snapshot()
	if slowest == nil {
		slowest = []*slowEntry{} // render [] rather than null
	}
	if errs == nil {
		errs = []*slowEntry{}
	}
	return map[string]any{
		"build":          buildinfoJSON(),
		"size":           s.cfg.SlowlogSize,
		"threshold_ms":   float64(s.cfg.SlowlogThreshold.Microseconds()) / 1000,
		"slowest":        slowest,
		"recent_errors":  errs,
		"uptime_seconds": s.Uptime().Seconds(),
	}
}

func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slowlogPayload())
}

// WriteSlowlog dumps the slow-query log as indented JSON — serverd
// flushes it at shutdown so the captured span trees survive the process.
func (s *Server) WriteSlowlog(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(s.slowlogPayload())
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, buildinfoJSON())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.refreshIngestGauges()
	latency := map[string]any{}
	s.mLatency.Each(func(endpoint string, h *metrics.Histogram) {
		latency[endpoint] = histQuantiles(h)
	})
	stages := map[string]any{}
	s.mStageSeconds.Each(func(stage string, h *metrics.Histogram) {
		stages[stage] = histQuantiles(h)
	})
	cacheEntries, cacheBytes := s.searchCache.Len()
	writeJSON(w, http.StatusOK, map[string]any{
		"ingest":         s.ingestStatsJSON(true),
		"snapshot":       s.snapshotJSON(true),
		"uptime_seconds": s.Uptime().Seconds(),
		"triples":        s.eng.NumTriples(),
		"build_seconds":  s.eng.BuildDuration().Seconds(),
		"workers": map[string]any{
			"capacity": s.pool.capacity(),
			"in_use":   s.pool.inUse(),
		},
		"search_cache": map[string]any{
			"capacity_bytes": s.cfg.CacheBytes,
			"bytes":          cacheBytes,
			"entries":        cacheEntries,
			"hits":           s.mCacheHits.Value(),
			"misses":         s.mCacheMisses.Value(),
		},
		"singleflight_shared_total": s.mFlightShared.Value(),
		"timeouts_total":            s.mTimeouts.Value(),
		"rejected_total":            s.mRejected.Value(),
		"latency":                   latency,
		"stages":                    stages,
		"runtime":                   metrics.ReadRuntime(),
		"slowlog": map[string]any{
			"size":         s.cfg.SlowlogSize,
			"threshold_ms": float64(s.cfg.SlowlogThreshold.Microseconds()) / 1000,
		},
		"exploration": map[string]any{
			"terminated": map[string]any{
				"top_k_reached": s.mTerminated.With(core.TopKReached.String()).Value(),
				"exhausted":     s.mTerminated.With(core.Exhausted.String()).Value(),
				"aborted":       s.mTerminated.With(core.Aborted.String()).Value(),
				"cancelled":     s.mTerminated.With(core.Cancelled.String()).Value(),
			},
			"cursors_created_total": s.mCursorsCreated.Value(),
			"cursors_popped_total":  s.mCursorsPopped.Value(),
			"oracle_builds_total":   s.mOracleBuilds.Value(),
			"oracle_build_seconds":  s.mOracleSeconds.Sum(),
		},
		"execution": map[string]any{
			"join_iterations_total": s.mExecIterations.Value(),
			"rows_examined_total":   s.mExecExamined.Value(),
			"rows_deduped_total":    s.mExecDeduped.Value(),
			"truncated": map[string]any{
				"limit":       s.mExecTruncated.With(string(exec.TruncLimit)).Value(),
				"max_rows":    s.mExecTruncated.With(string(exec.TruncMaxRows)).Value(),
				"step_budget": s.mExecTruncated.With(string(exec.TruncBudget)).Value(),
			},
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.refreshIngestGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
	// Runtime telemetry (goroutines, heap, GC pauses) rides the same
	// scrape so tail latency can be correlated with GC behavior.
	_ = metrics.WriteRuntimePrometheus(w)
}

// ---------------------------------------------------------------------------
// Inline query construction

func (a argJSON) toArg(predicate bool) (query.Arg, error) {
	set := 0
	if a.Var != "" {
		set++
	}
	if a.IRI != "" {
		set++
	}
	if a.Literal != nil {
		set++
	}
	if set != 1 {
		return query.Arg{}, fmt.Errorf("argument must set exactly one of var, iri, literal")
	}
	switch {
	case a.Var != "":
		if predicate {
			return query.Arg{}, fmt.Errorf("predicate must be an iri, not a variable")
		}
		return query.Variable(a.Var), nil
	case a.IRI != "":
		return query.Constant(rdf.NewIRI(a.IRI)), nil
	default:
		if predicate {
			return query.Arg{}, fmt.Errorf("predicate must be an iri, not a literal")
		}
		switch {
		case a.Lang != "":
			return query.Constant(rdf.NewLangLiteral(*a.Literal, a.Lang)), nil
		case a.Datatype != "":
			return query.Constant(rdf.NewTypedLiteral(*a.Literal, a.Datatype)), nil
		default:
			return query.Constant(rdf.NewLiteral(*a.Literal)), nil
		}
	}
}

func (qj *queryJSON) toQuery() (*query.ConjunctiveQuery, error) {
	if len(qj.Atoms) == 0 {
		return nil, fmt.Errorf("inline query has no atoms")
	}
	q := &query.ConjunctiveQuery{Distinguished: qj.Distinguished}
	for i, at := range qj.Atoms {
		s, err := at.S.toArg(false)
		if err != nil {
			return nil, fmt.Errorf("atom %d subject: %w", i, err)
		}
		p, err := at.P.toArg(true)
		if err != nil {
			return nil, fmt.Errorf("atom %d predicate: %w", i, err)
		}
		o, err := at.O.toArg(false)
		if err != nil {
			return nil, fmt.Errorf("atom %d object: %w", i, err)
		}
		q.AddAtom(query.Atom{Pred: p.Term, S: s, O: o})
	}
	for i, f := range qj.Filters {
		op := query.FilterOp(f.Op)
		switch op {
		case query.OpLT, query.OpLE, query.OpGT, query.OpGE:
		default:
			return nil, fmt.Errorf("filter %d: unknown operator %q (want <, <=, >, >=)", i, f.Op)
		}
		if f.Var == "" {
			return nil, fmt.Errorf("filter %d: missing var", i)
		}
		q.AddFilter(query.Filter{Var: f.Var, Op: op, Value: f.Value})
	}
	return q, nil
}

// toTermJSON renders an RDF term for the wire.
func toTermJSON(t rdf.Term) termJSON {
	out := termJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	switch {
	case t.IsLiteral():
		out.Kind = "literal"
	case t.IsBlank():
		out.Kind = "blank"
	default:
		out.Kind = "iri"
	}
	return out
}
