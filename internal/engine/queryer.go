package engine

import (
	"context"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/scoring"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Queryer is the query-serving surface shared by the sealed Engine and
// the WAL-backed live backend (internal/ingest.Live). It is everything
// the HTTP serving layer (internal/server) needs: the
// backend is sealed read-only, answers keyword searches with ranked
// query candidates, executes and explains candidates, and reports its
// size and build cost for introspection endpoints.
type Queryer interface {
	// Seal builds any outstanding indexes and makes the backend
	// permanently read-only. Idempotent.
	Seal()
	// Sealed reports whether the backend is read-only.
	Sealed() bool
	// Config returns the effective engine configuration.
	Config() Config
	// NumTriples returns the number of distinct triples served.
	NumTriples() int
	// BuildDuration returns the off-line preprocessing time.
	BuildDuration() time.Duration
	// SearchKContext computes the top-k query candidates for a keyword
	// query (k ≤ 0 means the configured default) under a context.
	SearchKContext(ctx context.Context, keywords []string, k int) ([]*QueryCandidate, *SearchInfo, error)
	// ExecuteLimitContext evaluates a candidate, stopping at limit
	// distinct answers (limit ≤ 0 means no limit), under a context.
	ExecuteLimitContext(ctx context.Context, c *QueryCandidate, limit int) (*exec.ResultSet, error)
	// Explain returns the evaluation plan for a candidate without
	// executing it.
	Explain(c *QueryCandidate) (*exec.Plan, error)
}

var _ Queryer = (*Engine)(nil)

// ComputeCandidates runs the query-computation tail of the pipeline —
// summary-graph augmentation, top-k exploration, and element-to-query
// mapping with filter attachment and deduplication — for pre-mapped
// keyword matches. It is the code shared verbatim by Engine.SearchKContext
// and the benchmark's comparison cluster (internal/shard): once the
// per-keyword matches agree, the candidates agree bit-for-bit, which is
// the heart of the cluster equivalence argument (see DESIGN.md, "The
// comparison cluster").
//
// matches holds the keyword-to-element mapping per keyword (all non-empty;
// callers surface UnmatchedKeywordsError themselves), filterSpecs the
// parsed filter keywords (nil entries for ordinary keywords), and info —
// if non-nil — receives the exploration statistics. cfg must already have
// defaults applied and k must be positive.
func ComputeCandidates(ctx context.Context, explorer *core.Explorer, sum *summary.Graph,
	cfg Config, k int, matches [][]summary.Match, filterSpecs []*FilterSpec,
	info *SearchInfo) ([]*QueryCandidate, error) {

	// Keyword mapping (fuzzy + semantic lookups) is a potentially
	// expensive pre-exploration stage; re-check before augmenting.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Augmentation of the graph index.
	_, augSpan := trace.StartSpan(ctx, "augment")
	ag := sum.AugmentWorkers(matches, cfg.Parallelism)
	augSpan.End()

	// Top-k graph exploration, under the oracle policy and intra-query
	// worker cap of the configuration.
	scorer := scoring.New(cfg.Scoring, ag)
	ectx, expSpan := trace.StartSpan(ctx, "explore")
	res := explorer.ExploreContext(ectx, ag, scorer.ElementCost, core.Options{
		K: k, DMax: cfg.DMax, Oracle: cfg.Oracle, OracleWorkers: cfg.Parallelism,
	})
	expSpan.End()
	if info != nil {
		info.Exploration = res.Stats
		info.Guaranteed = res.Guaranteed
		info.OracleBuild = res.OracleBuild
	}
	if res.Stats.Terminated == core.Cancelled {
		return nil, ctx.Err()
	}

	// Element-to-query mapping, attaching filters to the variables of
	// the matched attribute edges' artificial value nodes, then
	// de-duplicating equivalent queries.
	_, mapSpan := trace.StartSpan(ctx, "map")
	defer mapSpan.End()
	seeds := ag.Seeds()
	var cands []*QueryCandidate
	for _, g := range res.Subgraphs {
		q, vars := query.FromSubgraphVars(ag, g)
		if len(q.Atoms) == 0 {
			continue // e.g. several keywords matching one isolated value
		}
		for i, spec := range filterSpecs {
			if spec == nil {
				continue
			}
			for _, seed := range seeds[i] {
				if !g.Contains(seed) {
					continue
				}
				el := ag.Element(seed)
				if el.Kind != summary.AttrEdge {
					continue
				}
				if v, ok := vars[el.To]; ok {
					q.AddFilter(query.Filter{Var: v, Op: spec.Op, Value: spec.Value})
				}
			}
		}
		dup := false
		for _, prev := range cands {
			if query.Equivalent(prev.Query, q) {
				dup = true
				break
			}
		}
		if !dup {
			cands = append(cands, &QueryCandidate{Query: q, Cost: q.Cost})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	return cands, nil
}
