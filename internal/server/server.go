// Package server is the online serving subsystem: an HTTP/JSON front end
// over engine.Engine that plays the role of the paper's SearchWebDB demo
// endpoint at service scale. It exposes keyword search (top-k query
// candidates with NL descriptions and SPARQL), candidate execution and
// explanation, and operational introspection (health, stats, Prometheus
// metrics).
//
// The serving model: the engine is sealed (read-only) at construction, so
// any number of requests proceed in parallel without locking; a bounded
// worker pool caps concurrent query computations; every request runs
// under a deadline threaded as context.Context down through exploration
// and join execution; a byte-bounded LRU cache short-circuits repeated
// searches (and resolves the candidate ids they handed out) and a
// single-flight group collapses identical in-flight ones.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// Config tunes the server. The zero value gives sensible defaults.
type Config struct {
	// Workers caps concurrent query computations (default 2×GOMAXPROCS,
	// set in New via runtime; see withDefaults).
	Workers int
	// CacheBytes bounds the result cache by the estimated heap bytes of
	// its entries (default 8 MiB). Candidate ids resolve through their
	// search's entry, so this one bound covers both.
	CacheBytes int64
	// CacheTTL bounds the age of cached search results, and with them of
	// candidate ids: entries expire TTL after insertion even without LRU
	// pressure (0 = never — correct for a sealed immutable dataset, the
	// freshness knob for deployments that rebuild and swap datasets).
	CacheTTL time.Duration
	// DefaultTimeout applies when a request names none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 60s).
	MaxTimeout time.Duration
	// MaxK caps the per-request number of candidates (default 50).
	MaxK int
	// MaxKeywords caps keywords per search (default 10).
	MaxKeywords int
	// DefaultLimit is the execute-row limit when a request names none
	// (default 100).
	DefaultLimit int
	// MaxLimit caps client-requested execute-row limits (default 10000).
	MaxLimit int
	// SlowlogSize is how many of the slowest requests — and, separately,
	// how many of the most recent erroring requests — the slow-query log
	// retains with their span trees (default 32; negative disables the
	// log).
	SlowlogSize int
	// SlowlogThreshold is the minimum latency for a request to compete
	// for the slowlog's slowest list (default 0: every traced request
	// competes; erroring requests are captured regardless).
	SlowlogThreshold time.Duration
	// MaxBodyBytes caps request body size on the /v1 POST endpoints;
	// larger bodies are answered 413 (default 1 MiB — keyword queries and
	// inline conjunctive queries are tiny).
	MaxBodyBytes int64
	// Snapshot describes the snapshot the backend was booted from, for
	// the observability surface (/healthz, /stats, and the
	// searchwebdb_snapshot_load_seconds gauge). nil when the backend was
	// built from a triple stream (load mode "rebuilt").
	Snapshot *snapshot.Info
	// Live enables the ingestion surface over a WAL-backed live backend:
	// POST /v1/ingest, the epoch/WAL metrics, and swap-driven keyword
	// cache invalidation. It must be the same value passed as the
	// backend. nil (the default) serves sealed and read-only.
	Live *ingest.Live
}

func (c Config) withDefaults(procs int) Config {
	if c.Workers <= 0 {
		c.Workers = 2 * procs
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	// An operator raising the default deadline means it: don't let the
	// client-override cap silently clamp it back down.
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.MaxK <= 0 {
		c.MaxK = 50
	}
	if c.MaxKeywords <= 0 {
		c.MaxKeywords = 10
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 10000
	}
	if c.SlowlogSize == 0 {
		c.SlowlogSize = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server serves one query backend over HTTP. Create it with New, mount
// Handler on an http.Server. The backend is anything implementing
// engine.Queryer — the sealed engine or the WAL-backed live backend
// (internal/ingest.Live) — and the query path cannot tell the
// difference.
type Server struct {
	eng   engine.Queryer
	cfg   Config
	start time.Time

	searchCache *lruCache // query id → *searchEntry
	flight      *flightGroup
	pool        *workerPool
	slow        *slowlog

	reg       *metrics.Registry
	mRequests *metrics.CounterVec
	mErrors   *metrics.CounterVec
	// mLatency and mStageSeconds are log-bucketed histograms, so /metrics
	// and /stats can report tail quantiles (p50/p95/p99), not just means.
	mLatency      *metrics.HistogramVec
	mStageSeconds *metrics.HistogramVec
	mInflight     *metrics.Gauge
	mCacheHits    *metrics.Counter
	mCacheMisses  *metrics.Counter
	mFlightShared *metrics.Counter
	mTimeouts     *metrics.Counter
	mRejected     *metrics.Counter
	mTriples      *metrics.Gauge

	// Exploration telemetry, updated once per computed (non-cached,
	// non-shared) search: how queries end (TA bound vs exhaustion vs
	// MaxPops vs deadline), how much cursor work they cost, and what the
	// Sec. IX oracle's always-on pruning is doing in production.
	mTerminated     *metrics.CounterVec
	mCursorsCreated *metrics.Counter
	mCursorsPopped  *metrics.Counter
	mOracleBuilds   *metrics.Counter
	mOracleSeconds  *metrics.Histogram

	// Execution telemetry, updated once per successful execute: the join
	// work the pooled executor spent, the bindings it examined and
	// deduplicated, and which bound (limit, max_rows, step_budget) cut
	// truncated evaluations short.
	mExecIterations *metrics.Counter
	mExecExamined   *metrics.Counter
	mExecDeduped    *metrics.Counter
	mExecTruncated  *metrics.CounterVec

	// Handler panics recovered by the serving middleware.
	mPanics *metrics.Counter

	// Cold-start provenance: how long the snapshot load took (0 when the
	// backend was built from a triple stream rather than booted).
	mSnapLoad *metrics.FloatGauge

	// Live-ingestion surface: the WAL-backed backend (nil for sealed
	// deploys — the metrics still exist and read zero) and its telemetry:
	// current epoch, triples accepted over HTTP, WAL fsync latency, epoch
	// swap latency, and cache entries invalidated by swaps.
	live         *ingest.Live
	mEpoch       *metrics.Gauge
	mIngested    *metrics.Counter
	mFsync       *metrics.Histogram
	mSwapSeconds *metrics.Histogram
	mInvalidated *metrics.Counter

	// WAL/checkpoint health: log size and segment count (scrape-
	// refreshed), checkpoint latency and age, and triples dropped by
	// retention merges.
	mWALSize           *metrics.Gauge
	mWALSegments       *metrics.Gauge
	mCheckpointSeconds *metrics.Histogram
	mCheckpointAge     *metrics.FloatGauge
	mExpired           *metrics.Counter
}

// New builds a server over a query backend, sealing it: any outstanding
// indexes are built here (so the first request doesn't pay for them) and
// the backend becomes permanently read-only. procsHint sizes the default
// worker pool; pass runtime.GOMAXPROCS(0) (cmd/serverd does) or any
// positive count.
func New(eng engine.Queryer, cfg Config, procsHint int) *Server {
	if procsHint <= 0 {
		procsHint = 1
	}
	cfg = cfg.withDefaults(procsHint)
	eng.Seal()
	s := &Server{
		eng:         eng,
		cfg:         cfg,
		start:       time.Now(),
		searchCache: newLRUCache(cfg.CacheBytes, cfg.CacheTTL),
		flight:      newFlightGroup(),
		pool:        newWorkerPool(cfg.Workers),
		slow:        newSlowlog(cfg.SlowlogSize, cfg.SlowlogThreshold),
		reg:         metrics.NewRegistry(),
	}
	s.mRequests = s.reg.CounterVec("searchwebdb_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	s.mErrors = s.reg.CounterVec("searchwebdb_errors_total",
		"Requests answered with a non-2xx status, by endpoint.", "endpoint")
	s.mLatency = s.reg.HistogramVec("searchwebdb_request_seconds",
		"Request latency in seconds, by endpoint.", "endpoint", nil)
	s.mStageSeconds = s.reg.HistogramVec("searchwebdb_stage_seconds",
		"Per-stage latency in seconds across traced requests, by pipeline stage (span name).", "stage", nil)
	s.mInflight = s.reg.Gauge("searchwebdb_inflight_requests",
		"Requests currently being served.")
	s.mCacheHits = s.reg.Counter("searchwebdb_search_cache_hits_total",
		"Searches answered from the result cache.")
	s.mCacheMisses = s.reg.Counter("searchwebdb_search_cache_misses_total",
		"Searches that had to be computed.")
	s.mFlightShared = s.reg.Counter("searchwebdb_singleflight_shared_total",
		"Searches that shared another request's in-flight computation.")
	s.mTimeouts = s.reg.Counter("searchwebdb_timeouts_total",
		"Requests that hit their deadline.")
	s.mRejected = s.reg.Counter("searchwebdb_rejected_total",
		"Requests rejected because no worker slot freed before the deadline.")
	s.mTriples = s.reg.Gauge("searchwebdb_triples",
		"Triples in the sealed store.")
	s.mTriples.Set(int64(eng.NumTriples()))
	s.mTerminated = s.reg.CounterVec("searchwebdb_search_terminated_total",
		"Computed searches by exploration termination reason (top-k reached, exhausted, aborted, cancelled).", "reason")
	s.mCursorsCreated = s.reg.Counter("searchwebdb_exploration_cursors_created_total",
		"Exploration cursors created across computed searches.")
	s.mCursorsPopped = s.reg.Counter("searchwebdb_exploration_cursors_popped_total",
		"Exploration cursors popped across computed searches.")
	s.mOracleBuilds = s.reg.Counter("searchwebdb_oracle_builds_total",
		"Computed searches whose exploration built the distance oracle.")
	s.mOracleSeconds = s.reg.Histogram("searchwebdb_oracle_build_seconds",
		"Distance-oracle construction time per computed search that built one.", nil)
	s.mExecIterations = s.reg.Counter("searchwebdb_execute_iterations_total",
		"Join iterations spent across executed queries.")
	s.mExecExamined = s.reg.Counter("searchwebdb_execute_rows_examined_total",
		"Fully joined bindings reaching projection across executed queries.")
	s.mExecDeduped = s.reg.Counter("searchwebdb_execute_rows_deduped_total",
		"Bindings rejected as duplicate answers across executed queries.")
	s.mExecTruncated = s.reg.CounterVec("searchwebdb_execute_truncated_total",
		"Executed queries truncated, by reason (limit, max_rows, step_budget).", "reason")
	s.mPanics = s.reg.Counter("searchwebdb_panics_total",
		"Handler panics recovered by the serving middleware (answered 500).")
	s.mSnapLoad = s.reg.FloatGauge("searchwebdb_snapshot_load_seconds",
		"Wall time of the snapshot load the backend booted from (0 when built from a triple stream).")
	if cfg.Snapshot != nil {
		s.mSnapLoad.Set(cfg.Snapshot.LoadDuration.Seconds())
	}
	s.mEpoch = s.reg.Gauge("searchwebdb_epoch",
		"Current epoch number of the live backend (0 on sealed read-only deploys).")
	s.mIngested = s.reg.Counter("searchwebdb_ingest_triples_total",
		"Triples accepted through /v1/ingest (duplicates included — they are acknowledged).")
	s.mFsync = s.reg.Histogram("searchwebdb_wal_fsync_seconds",
		"WAL fsync latency per sync, under the configured fsync policy.", nil)
	s.mSwapSeconds = s.reg.Histogram("searchwebdb_epoch_swap_seconds",
		"Epoch swap latency: delta merge plus incremental (or fallback full) index maintenance.", nil)
	s.mInvalidated = s.reg.Counter("searchwebdb_search_cache_invalidated_total",
		"Cached searches dropped by keyword-matched invalidation at epoch swaps.")
	s.mWALSize = s.reg.Gauge("searchwebdb_wal_size_bytes",
		"On-disk size of all live WAL segments (0 on sealed read-only deploys).")
	s.mWALSegments = s.reg.Gauge("searchwebdb_wal_segments",
		"Live WAL segment files.")
	s.mCheckpointSeconds = s.reg.Histogram("searchwebdb_checkpoint_seconds",
		"End-to-end checkpoint latency: merge, snapshot write, manifest commit, log truncation.", nil)
	s.mCheckpointAge = s.reg.FloatGauge("searchwebdb_checkpoint_age_seconds",
		"Seconds since the last committed checkpoint (0 until one commits).")
	s.mExpired = s.reg.Counter("searchwebdb_triples_expired_total",
		"Triples dropped by TTL retention at epoch merges.")
	if cfg.Live != nil {
		s.bindLive(cfg.Live)
	}
	return s
}

// snapshotJSON renders the boot-provenance block of /healthz and
// /stats: where the sealed indexes came from and how their bytes are
// backed ("mmap", "heap", or "rebuilt" for a backend built from a
// triple stream). detailed adds the per-section size breakdown.
func (s *Server) snapshotJSON(detailed bool) map[string]any {
	si := s.cfg.Snapshot
	if si == nil {
		return map[string]any{"mode": "rebuilt"}
	}
	out := map[string]any{
		"mode":           si.Mode,
		"path":           si.Path,
		"format_version": si.FormatVersion,
		"load_seconds":   si.LoadDuration.Seconds(),
		"total_bytes":    si.TotalBytes,
	}
	if detailed {
		out["sections"] = si.Sections
	}
	return out
}

// observeExecution folds one execute's work counters into the registry.
func (s *Server) observeExecution(rs *exec.ResultSet) {
	s.mExecIterations.Add(uint64(rs.Stats.JoinIterations))
	s.mExecExamined.Add(uint64(rs.Stats.RowsExamined))
	s.mExecDeduped.Add(uint64(rs.Stats.RowsDeduped))
	if rs.Stats.TruncatedBy != exec.TruncNone {
		s.mExecTruncated.With(string(rs.Stats.TruncatedBy)).Inc()
	}
}

// observeExploration folds one computed search's exploration statistics
// into the metrics registry. Searches whose exploration never started
// (unmatched keywords, a deadline that expired before the lookups
// finished) contribute nothing — the counters describe explorations.
func (s *Server) observeExploration(info *engine.SearchInfo) {
	if info == nil {
		return
	}
	st := info.Exploration
	if st.CursorsCreated == 0 && st.Terminated != core.Cancelled {
		return
	}
	s.mTerminated.With(st.Terminated.String()).Inc()
	s.mCursorsCreated.Add(uint64(st.CursorsCreated))
	s.mCursorsPopped.Add(uint64(st.CursorsPopped))
	if st.OracleUsed {
		s.mOracleBuilds.Inc()
		s.mOracleSeconds.Observe(info.OracleBuild.Seconds())
	}
}

// Uptime returns how long the server has existed.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// normalizeKeywords canonicalizes a keyword list for cache keying: terms
// are whitespace-trimmed, lowercased, and empty terms dropped. Keyword
// order is preserved — it does not affect the result set, but sorting
// would conflate queries whose per-keyword diagnostics (match counts)
// differ in order; the small extra cache traffic is not worth the
// confusion.
func normalizeKeywords(keywords []string) []string {
	out := make([]string, 0, len(keywords))
	for _, kw := range keywords {
		kw = strings.ToLower(strings.Join(strings.Fields(kw), " "))
		if kw != "" {
			out = append(out, kw)
		}
	}
	return out
}

// searchKey builds the cache/singleflight key for a normalized keyword
// list and k. Terms are length-prefixed so no keyword content — not even
// a separator byte smuggled inside a term — can make two distinct
// keyword lists collide. The engine config is fixed per server, so it
// does not participate.
func searchKey(norm []string, k int) string {
	var b strings.Builder
	for _, t := range norm {
		b.WriteString(strconv.Itoa(len(t)))
		b.WriteByte(':')
		b.WriteString(t)
	}
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(k))
	return b.String()
}

// queryIDFor derives the stable query id of a search key: the result
// cache's key and the prefix of the search's candidate ids,
// q<hash>-<rank>.
func queryIDFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "q" + hex.EncodeToString(sum[:6])
}

// splitCandidateID splits a candidate id into its query id and rank.
func splitCandidateID(id string) (qid string, rank int, ok bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return "", 0, false
	}
	rank, err := strconv.Atoi(id[i+1:])
	return id[:i], rank, err == nil
}
