package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/keywordindex"
	"repro/internal/parallel"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Cluster is the coordinator over N shards. Its SearchKContext,
// ExecuteLimitContext and Explain return what the engine's do on the
// same triples. A cluster is immutable (born sealed) and safe for any
// number of concurrent searches and executions.
type Cluster struct {
	cfg    engine.Config
	shards []*Shard

	// dict is the coordinator's catalog: the full dictionary in the
	// single-engine ID space (store.DictionaryView — no triples).
	dict *store.Store
	// sum is the global summary graph, backed by a slim graph over dict.
	sum *summary.Graph
	// df is the corpus-wide term → document-frequency table (the global
	// IDF statistics the merged keyword ranking needs).
	df map[string]int
	// numeric are the global numeric-attribute matches for filter
	// keywords ("before 2005"), in coordinator IDs.
	numeric []summary.Match

	explorer     *core.Explorer
	totalTriples int

	// MaxSteps bounds the total join iterations per distributed execute,
	// mirroring exec.Engine.MaxSteps (0 applies exec.DefaultMaxSteps).
	// Set it before serving; it is read concurrently.
	MaxSteps int
	// MaxRows bounds distinct-answer tracking per execute when the
	// caller sets no limit, mirroring exec.Engine.MaxRows (0 applies
	// exec.DefaultMaxRows). Set it before serving.
	MaxRows int

	// scratch recycles distributed-execute working memory (flat binding
	// tables, per-shard extension buffers, the coordinator dedup set)
	// across queries; see distScratch.
	scratch sync.Pool
}

// NumTriples returns the total number of distinct triples across shards.
func (c *Cluster) NumTriples() int { return c.totalTriples }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardSizes returns the owned triple count per shard.
func (c *Cluster) ShardSizes() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.NumTriples()
	}
	return out
}

// SearchKContext computes the top-k query candidates for a keyword query.
//
// Stage 1 (scatter): every shard maps every keyword against its local
// keyword index concurrently, returning raw per-channel contributions.
// Stage 2 (gather): the coordinator merges them with the global lexicon
// statistics into exactly the matches a single global index produces.
// Stage 3: augmentation, exploration, and query mapping run at the
// coordinator over the global summary graph — the code path shared with
// engine.Engine (engine.ComputeCandidates).
func (c *Cluster) SearchKContext(ctx context.Context, keywords []string, k int) ([]*engine.QueryCandidate, *engine.SearchInfo, error) {
	if len(keywords) == 0 {
		return nil, nil, fmt.Errorf("shard: empty keyword query")
	}
	if k <= 0 {
		k = c.cfg.K
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	opts := keywordindex.LookupOptions{
		MaxMatches:      c.cfg.MaxMatchesPerKeyword,
		DisableFuzzy:    c.cfg.DisableFuzzy,
		DisableSemantic: c.cfg.DisableSemantic,
	}
	matches := make([][]summary.Match, len(keywords))
	filterSpecs := make([]*engine.FilterSpec, len(keywords))
	var scatter []int // keyword indexes that need the shards
	for i, kw := range keywords {
		if spec, ok := engine.ParseFilterKeyword(kw); ok {
			specCopy := spec
			filterSpecs[i] = &specCopy
			matches[i] = append([]summary.Match(nil), c.numeric...)
			continue
		}
		scatter = append(scatter, i)
	}

	// Scatter: one goroutine per shard computes the raw lookups for
	// every non-filter keyword; raws[shard][j] answers keywords[scatter[j]].
	lctx, lookupSpan := trace.StartSpan(ctx, "lookup")
	raws := make([][]*keywordindex.RawLookup, len(c.shards))
	if len(scatter) > 0 {
		var wg sync.WaitGroup
		for si, sh := range c.shards {
			wg.Add(1)
			go func(si int, sh *Shard) {
				defer wg.Done()
				_, shSpan := trace.StartSpan(lctx, "shard_lookup")
				defer shSpan.End()
				if shSpan.Enabled() {
					shSpan.Annotate("shard=" + strconv.Itoa(si))
				}
				part := make([]*keywordindex.RawLookup, len(scatter))
				for j, ki := range scatter {
					if ctx.Err() != nil {
						return
					}
					part[j] = sh.kwix.LookupRaw(keywords[ki], opts)
				}
				raws[si] = part
			}(si, sh)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			lookupSpan.End()
			return nil, nil, err
		}
	}

	// Gather: merge per keyword in the coordinator's ID space. Each
	// keyword's merge — re-ranking every shard's raw contributions
	// against the global lexicon — is independent of the others, so the
	// ComputeCandidates input assembly fans out across the intra-query
	// worker cap alongside the lookups that produced it.
	dfFn := func(term string) int { return c.df[term] }
	resolve := func(t rdf.Term) (store.ID, bool) { return c.dict.Lookup(t) }
	_, mergeSpan := trace.StartSpan(lctx, "merge")
	parallel.ForEach(parallel.Workers(c.cfg.Parallelism), len(scatter), func(j int) {
		parts := make([]*keywordindex.RawLookup, len(c.shards))
		for si := range c.shards {
			parts[si] = raws[si][j]
		}
		matches[scatter[j]] = keywordindex.MergeRaw(parts, opts, dfFn, resolve)
	})
	mergeSpan.End()
	lookupSpan.End()

	info := &engine.SearchInfo{MatchCounts: make([]int, len(matches))}
	var unmatched []string
	for i, ms := range matches {
		info.MatchCounts[i] = len(ms)
		if len(ms) == 0 {
			unmatched = append(unmatched, keywords[i])
		}
	}
	if len(unmatched) > 0 {
		return nil, info, &engine.UnmatchedKeywordsError{Keywords: unmatched}
	}

	cands, err := engine.ComputeCandidates(ctx, c.explorer, c.sum, c.cfg, k, matches, filterSpecs, info)
	if err != nil {
		return nil, info, err
	}
	info.Elapsed = time.Since(start)
	return cands, info, nil
}

// Execute evaluates a candidate across all shards and returns all its
// answers (see ExecuteLimitContext).
func (c *Cluster) Execute(cand *engine.QueryCandidate) (*exec.ResultSet, error) {
	return c.ExecuteLimitContext(context.Background(), cand, 0)
}
