// Package engine wires the paper's full pipeline (Fig. 2) behind one
// facade: data loading, off-line preprocessing (data-graph classification,
// summary-graph construction, keyword-index building), and the on-line
// query computation — keyword-to-element mapping, summary-graph
// augmentation, top-k subgraph exploration, query mapping — plus query
// processing through the execution engine.
//
// The root package of this repository re-exports this facade as the
// public API; command-line tools and the benchmark harness use it
// directly.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/scoring"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
	"repro/internal/trace"
)

// Config tunes an Engine. The zero value gives the paper's defaults:
// C3 scoring, k = 10, dmax = 12 elements (6 vertex/edge hops).
type Config struct {
	// Scoring selects the cost function (default scoring.Matching = C3).
	Scoring scoring.Scheme
	// K is the number of query candidates to compute (default 10).
	K int
	// DMax bounds exploration path length in summary-graph elements
	// (default 10 — enough for value→attr→class→rel→class→rel→class→
	// attr→value interpretations with one hop of slack).
	DMax int
	// MaxMatchesPerKeyword caps the keyword-to-element mapping fan-out
	// (default 8).
	MaxMatchesPerKeyword int
	// DisableFuzzy and DisableSemantic switch off the imprecise matching
	// components of the keyword index.
	DisableFuzzy    bool
	DisableSemantic bool
	// Oracle selects the Sec. IX connectivity/score oracle policy. The
	// default, core.OracleAuto, builds the oracle — 2·|K| summary-graph
	// Dijkstras whose admissible bounds prune exploration without
	// changing any result — for every query its adaptive guard judges
	// worth the fixed cost (see core.DefaultMinOracleSeeds).
	// core.OracleOff restores the pre-oracle exploration for ablations.
	Oracle core.OracleMode
	// UseOracle is the legacy opt-in spelling of Oracle = core.OracleOn.
	UseOracle bool
	// Parallelism caps the goroutines a single query may fan out to in
	// its per-keyword stages — keyword-index lookups, the oracle's
	// Dijkstras (0 = one per CPU). Results never depend on it.
	Parallelism int
	// MaxExecRows caps distinct-answer tracking per execute when the
	// caller sets no row limit, so a degenerate unlimited query cannot
	// grow the dedup set and result rows without bound (0 =
	// exec.DefaultMaxRows). Results past the cap are reported Truncated.
	MaxExecRows int
	// Thesaurus overrides the semantic-similarity source (default: the
	// embedded thesaurus; ignored when DisableSemantic is set).
	Thesaurus *thesaurus.Thesaurus
}

// WithDefaults returns the configuration with the paper's defaults filled
// in for unset fields — the normalization New applies. Exported for the
// comparison cluster's builder (internal/shard), which must answer with
// the exact configuration a single engine would.
func (c Config) WithDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.DMax <= 0 {
		c.DMax = 10
	}
	if c.MaxMatchesPerKeyword <= 0 {
		c.MaxMatchesPerKeyword = 8
	}
	if c.Scoring == 0 {
		c.Scoring = scoring.Matching
	}
	if c.Thesaurus == nil {
		c.Thesaurus = thesaurus.Default()
	}
	if c.UseOracle && c.Oracle == core.OracleAuto {
		c.Oracle = core.OracleOn
	}
	return c
}

// Engine is the SearchWebDB-style keyword search system.
//
// Concurrency: the engine's own operations are safe for concurrent use.
// Mutating operations (AddTriples, the Load* family) and Build take an
// exclusive lock; the online operations (Search, Execute, Explain and
// their context variants) run under a shared lock, so any number of them
// proceed in parallel once the indexes are built. The raw accessors
// (Store, Graph, Summary, KeywordIndex) return structures shared with
// the engine: using them while another goroutine mutates the engine is a
// data race — on an unsealed engine, synchronize externally. A serving
// deployment should load data once and call Seal, after which the engine
// is permanently read-only, readers can never be blocked by a writer,
// and the accessor caveat is moot.
type Engine struct {
	mu     sync.RWMutex // guards every field below
	cfg    Config
	sealed bool

	st    *store.Store
	g     *graph.Graph
	sum   *summary.Graph
	kwix  *keywordindex.Index
	exec  *exec.Engine
	built bool

	// explorer recycles exploration working memory (cursor slab, priority
	// queue, dense element state) across queries, so a warm engine's
	// Search hot path is allocation-free in steady state. It is internally
	// synchronized; concurrent searches each check out their own state.
	explorer *core.Explorer

	// BuildTime records the duration of the last Build (Fig. 6b). Read it
	// after Build (or Seal) returns, not concurrently with loading.
	BuildTime time.Duration
}

// ErrSealed is returned (or panicked, for mutators without an error
// return) when data is added to an engine after Seal.
var ErrSealed = errors.New("engine: sealed (read-only); no further data can be added")

// New creates an empty engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.WithDefaults(), st: store.New(), explorer: core.NewExplorer()}
}

// NewFromParts assembles a sealed, ready-to-serve engine from
// externally constructed components — the entry point the snapshot
// loader uses to boot without re-deriving orderings, postings, or the
// summary graph. The parts must be mutually consistent (fixed up from
// one snapshot, or built from one store). buildTime is recorded as the
// engine's BuildTime (for a snapshot boot: the load duration).
func NewFromParts(cfg Config, st *store.Store, g *graph.Graph, sum *summary.Graph, kwix *keywordindex.Index, buildTime time.Duration) *Engine {
	cfg = cfg.WithDefaults()
	ex := exec.New(st)
	ex.MaxRows = cfg.MaxExecRows
	return &Engine{
		cfg:       cfg,
		sealed:    true,
		st:        st,
		g:         g,
		sum:       sum,
		kwix:      kwix,
		exec:      ex,
		built:     true,
		explorer:  core.NewExplorer(),
		BuildTime: buildTime,
	}
}

// Store exposes the underlying triple store. The returned store is
// shared, not a snapshot: do not add triples to it directly on a shared
// engine (use the engine's mutators, which lock), and do not read it
// concurrently with engine mutation unless the engine is sealed.
func (e *Engine) Store() *store.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st
}

// Graph exposes the classified data graph (nil before Build).
func (e *Engine) Graph() *graph.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g
}

// Summary exposes the summary graph (nil before Build).
func (e *Engine) Summary() *summary.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sum
}

// KeywordIndex exposes the keyword index (nil before Build).
func (e *Engine) KeywordIndex() *keywordindex.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.kwix
}

// Config returns the engine configuration.
func (e *Engine) Config() Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg
}

// NumTriples returns the number of distinct triples in the store.
func (e *Engine) NumTriples() int {
	return e.Store().Len()
}

// BuildDuration returns the duration of the last Build (zero before any
// build). It is the method form of the BuildTime field, usable through
// the Queryer interface.
func (e *Engine) BuildDuration() time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.BuildTime
}

// AddTriples appends triples; the engine rebuilds its indexes on the next
// Build or Search. It panics with ErrSealed on a sealed engine.
func (e *Engine) AddTriples(ts []rdf.Triple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealed {
		panic(ErrSealed)
	}
	e.st.AddAll(ts)
	e.built = false
}

// AddTriple appends one triple. It panics with ErrSealed on a sealed
// engine.
func (e *Engine) AddTriple(t rdf.Triple) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealed {
		panic(ErrSealed)
	}
	e.st.Add(t)
	e.built = false
}

// LoadNTriples reads N-Triples data.
func (e *Engine) LoadNTriples(r io.Reader) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealed {
		return 0, ErrSealed
	}
	nr := rdf.NewNTriplesReader(r)
	n := 0
	for {
		t, err := nr.Read()
		if err == io.EOF {
			e.built = false
			return n, nil
		}
		if err != nil {
			return n, err
		}
		e.st.Add(t)
		n++
	}
}

// LoadTurtle reads Turtle data.
func (e *Engine) LoadTurtle(r io.Reader) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealed {
		return 0, ErrSealed
	}
	p, err := rdf.NewTurtleParser(r)
	if err != nil {
		return 0, err
	}
	n := 0
	err = p.Parse(func(t rdf.Triple) error {
		e.st.Add(t)
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	e.built = false
	return n, nil
}

// Build runs the off-line preprocessing of Fig. 2: store indexes, data
// graph classification, summary graph, and keyword index. It is invoked
// lazily by Search; calling it explicitly makes the cost observable.
func (e *Engine) Build() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buildLocked()
}

func (e *Engine) buildLocked() {
	if e.built {
		return
	}
	start := time.Now()
	e.st.Build()
	e.g = graph.Build(e.st)
	e.sum = summary.Build(e.g)
	th := e.cfg.Thesaurus
	if e.cfg.DisableSemantic {
		th = nil
	}
	e.kwix = keywordindex.Build(e.g, th)
	e.exec = exec.New(e.st)
	e.exec.MaxRows = e.cfg.MaxExecRows
	e.BuildTime = time.Since(start)
	e.built = true
}

// Seal builds the indexes and flips the engine into read-only mode: any
// later attempt to add data fails with ErrSealed. Sealing is what a
// serving deployment wants — once sealed, the online path never takes the
// exclusive lock, so no reader is ever blocked by a writer and the
// data structures are provably immutable for the server's lifetime.
// Sealing is irreversible.
func (e *Engine) Seal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buildLocked()
	e.sealed = true
}

// Sealed reports whether Seal has been called.
func (e *Engine) Sealed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sealed
}

// acquireRead builds the indexes if necessary and returns with the shared
// lock held and every derived structure consistent with the store. The
// loop handles the race where a writer slips in between the build and the
// read-lock acquisition: built can only change under the exclusive lock,
// so observing built == true under the shared lock proves the indexes are
// current — and they stay current for as long as the lock is held.
func (e *Engine) acquireRead() {
	for {
		e.mu.RLock()
		if e.built {
			return
		}
		e.mu.RUnlock()
		e.Build()
	}
}

// QueryCandidate is one computed query: the conjunctive query, its cost,
// and the matching subgraph it was derived from.
type QueryCandidate struct {
	Query *query.ConjunctiveQuery
	Cost  float64
}

// SPARQL renders the candidate as SPARQL.
func (c *QueryCandidate) SPARQL() string { return c.Query.SPARQL() }

// Describe renders the candidate as a natural-language-style description.
func (c *QueryCandidate) Describe() string { return c.Query.Describe() }

// SearchInfo reports how a search went, for diagnostics and benchmarks.
type SearchInfo struct {
	// MatchCounts is the number of keyword elements per keyword.
	MatchCounts []int
	// Exploration holds the Algorithm 1/2 work counters.
	Exploration core.Stats
	// Guaranteed is true when the top-k guarantee held (Sec. VI-C).
	Guaranteed bool
	// OracleBuild is the time spent building the distance oracle (zero
	// when the adaptive guard skipped it); part of Elapsed.
	OracleBuild time.Duration
	// Elapsed is the total query-computation time.
	Elapsed time.Duration
}

// UnmatchedKeywordsError reports keywords the index could not map to any
// graph element.
type UnmatchedKeywordsError struct {
	Keywords []string
}

// Error implements the error interface.
func (e *UnmatchedKeywordsError) Error() string {
	return fmt.Sprintf("engine: no graph elements match keyword(s): %s",
		strings.Join(e.Keywords, ", "))
}

// Search runs the full on-line query computation for a keyword query and
// returns the top-k query candidates in ascending cost order.
func (e *Engine) Search(keywords []string) ([]*QueryCandidate, *SearchInfo, error) {
	return e.SearchKContext(context.Background(), keywords, 0)
}

// SearchContext is Search under a context: exploration and execution stop
// promptly when ctx is cancelled or its deadline passes, returning
// ctx.Err().
func (e *Engine) SearchContext(ctx context.Context, keywords []string) ([]*QueryCandidate, *SearchInfo, error) {
	return e.SearchKContext(ctx, keywords, 0)
}

// SearchK is Search with a per-call k.
func (e *Engine) SearchK(keywords []string, k int) ([]*QueryCandidate, *SearchInfo, error) {
	return e.SearchKContext(context.Background(), keywords, k)
}

// SearchKContext is Search with a per-call k (k ≤ 0 means the configured
// default) under a context.
func (e *Engine) SearchKContext(ctx context.Context, keywords []string, k int) ([]*QueryCandidate, *SearchInfo, error) {
	if len(keywords) == 0 {
		return nil, nil, fmt.Errorf("engine: empty keyword query")
	}
	e.acquireRead()
	defer e.mu.RUnlock()
	if k <= 0 {
		k = e.cfg.K
	}
	// The lazy Build above can be long on a first call; don't start the
	// per-keyword index lookups for a request that has already expired.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	// 1. Keyword-to-element mapping. Filter keywords ("before 2005",
	// ">= 10") map to the numeric attribute edges of the graph — the
	// filter-operator extension the paper sketches in Sec. IX.
	opts := keywordindex.LookupOptions{
		MaxMatches:      e.cfg.MaxMatchesPerKeyword,
		DisableFuzzy:    e.cfg.DisableFuzzy,
		DisableSemantic: e.cfg.DisableSemantic,
	}
	// Each keyword's mapping is independent (the index is immutable once
	// built), so the fuzzy/semantic lookups — the most expensive
	// pre-exploration stage — fan out across the intra-query worker cap.
	_, lookupSpan := trace.StartSpan(ctx, "lookup")
	if lookupSpan.Enabled() {
		lookupSpan.Annotate("kw=" + strconv.Itoa(len(keywords)))
	}
	matches := make([][]summary.Match, len(keywords))
	filterSpecs := make([]*FilterSpec, len(keywords))
	parallel.ForEach(parallel.Workers(e.cfg.Parallelism), len(keywords), func(i int) {
		if spec, ok := ParseFilterKeyword(keywords[i]); ok {
			specCopy := spec
			filterSpecs[i] = &specCopy
			matches[i] = e.kwix.NumericAttrMatches()
			return
		}
		matches[i] = e.kwix.LookupOpts(keywords[i], opts)
	})
	lookupSpan.End()
	info := &SearchInfo{MatchCounts: make([]int, len(matches))}
	var unmatched []string
	for i, ms := range matches {
		info.MatchCounts[i] = len(ms)
		if len(ms) == 0 {
			unmatched = append(unmatched, keywords[i])
		}
	}
	if len(unmatched) > 0 {
		return nil, info, &UnmatchedKeywordsError{Keywords: unmatched}
	}

	// 2–4. Augmentation, exploration, and query mapping — the tail shared
	// with the comparison cluster.
	cands, err := ComputeCandidates(ctx, e.explorer, e.sum, e.cfg, k, matches, filterSpecs, info)
	if err != nil {
		return nil, info, err
	}
	info.Elapsed = time.Since(start)
	return cands, info, nil
}

// Execute evaluates a query candidate on the underlying database engine
// and returns all its answers.
func (e *Engine) Execute(c *QueryCandidate) (*exec.ResultSet, error) {
	return e.ExecuteLimitContext(context.Background(), c, 0)
}

// ExecuteContext is Execute under a context; evaluation stops with
// ctx.Err() when the context is cancelled.
func (e *Engine) ExecuteContext(ctx context.Context, c *QueryCandidate) (*exec.ResultSet, error) {
	return e.ExecuteLimitContext(ctx, c, 0)
}

// ExecuteLimit evaluates a candidate, stopping at limit distinct answers.
func (e *Engine) ExecuteLimit(c *QueryCandidate, limit int) (*exec.ResultSet, error) {
	return e.ExecuteLimitContext(context.Background(), c, limit)
}

// ExecuteLimitContext is ExecuteLimit under a context.
func (e *Engine) ExecuteLimitContext(ctx context.Context, c *QueryCandidate, limit int) (*exec.ResultSet, error) {
	e.acquireRead()
	defer e.mu.RUnlock()
	return e.exec.ExecuteLimitContext(ctx, c.Query, limit)
}

// ExecuteLimitContextDelta is ExecuteLimitContext with a live-ingestion
// read overlay: evaluation sees this engine's sealed store plus the
// delta snapshot as one triple set, bit-identical to an engine built
// over the merged data. A nil delta is exactly ExecuteLimitContext.
func (e *Engine) ExecuteLimitContextDelta(ctx context.Context, c *QueryCandidate, limit int, delta *store.DeltaSnap) (*exec.ResultSet, error) {
	e.acquireRead()
	defer e.mu.RUnlock()
	return e.exec.ExecuteLimitContextDelta(ctx, c.Query, limit, delta)
}

// Explain returns the database engine's evaluation plan for a candidate
// without executing it.
func (e *Engine) Explain(c *QueryCandidate) (*exec.Plan, error) {
	e.acquireRead()
	defer e.mu.RUnlock()
	return e.exec.Explain(c.Query)
}

// AnswersForTop processes candidates in rank order until at least
// minAnswers answers are collected (the user-facing operation timed in
// Fig. 5: compute top queries, then evaluate the best ones until 10
// answers exist). It returns the answers found and the number of queries
// processed.
func (e *Engine) AnswersForTop(cands []*QueryCandidate, minAnswers int) (*exec.ResultSet, int, error) {
	return e.AnswersForTopContext(context.Background(), cands, minAnswers)
}

// AnswersForTopContext is AnswersForTop under a context.
func (e *Engine) AnswersForTopContext(ctx context.Context, cands []*QueryCandidate, minAnswers int) (*exec.ResultSet, int, error) {
	e.acquireRead()
	defer e.mu.RUnlock()
	combined := &exec.ResultSet{}
	processed := 0
	for _, c := range cands {
		rs, err := e.exec.ExecuteLimitContext(ctx, c.Query, minAnswers-combined.Len())
		if err != nil {
			return combined, processed, err
		}
		processed++
		if combined.Len() == 0 {
			combined.Vars = rs.Vars
		}
		combined.Rows = append(combined.Rows, rs.Rows...)
		if combined.Len() >= minAnswers {
			break
		}
	}
	return combined, processed, nil
}
