package main

import (
	"context"
	"errors"
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keywordindex"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/scoring"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/summary"
)

// The layers pass replays the head of a workload's request stream in
// process, one request at a time, through each module's public functions
// — the same calls, in the same order and with the same fan-out, that
// engine.SearchKContext and ExecuteLimitContext make — and records a span
// around every call. It answers "where does a request's time go" with
// numbers that add up: the stage medians plus engine.unattributed_us equal
// the median of the direct, unstaged call on the same requests.
//
// Spans are recorded here, in the benchmark's own files; the program under
// test is not instrumented. Counters (cursors, join iterations, matches)
// are exact and repeat for one seed; times and allocation counts are
// medians.

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative heap allocation count. Only the
// replay goroutine runs between two reads, so a difference is that call's
// allocations (plus any the runtime makes behind it, which is why allocs
// are reported as medians, not as exact counts).
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layersPass holds what the replay produced.
type layersPass struct {
	Metrics metricSet
	// InprocUS is, per replayed request, the time of the direct in-process
	// call — what the server's engine spends on it when nothing is cached.
	InprocUS []float64
	// Diverged lists requests whose staged replay did not reproduce the
	// engine's own answer: the replay no longer mirrors the pipeline.
	Diverged []string
}

// runLayers replays ops against the reference engine.
func runLayers(ref *reference, ops []*op, rec *recorder) (*layersPass, error) {
	eng := ref.eng
	cfg := eng.Config()
	sum, kwix := eng.Summary(), eng.KeywordIndex()
	explorer := core.NewExplorer()
	ctx := context.Background()
	lp := &layersPass{Metrics: metricSet{}, InprocUS: make([]float64, len(ops))}

	var (
		directUS                                           []float64
		lookupAllocs, augmentAllocs, exploreAllocs         []float64
		seedsPerQuery, augElems                            []float64
		keywords, matchesTotal                             int
		created, popped, subgraphs, mapped, kept, searches int

		joinIters, examined, rows, execs int64
		execAllocs                       uint64
	)

	for qi, o := range ops {
		q := int32(qi)
		if o.Kind == opSearch {
			// Direct call: the number the stages must add up to.
			t := time.Now()
			cands, unmatched, err := ref.search(o.Keywords)
			d := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("reference search %v: %w", o.Keywords, err)
			}
			direct := answerFingerprint(cands, unmatched)
			if !o.Loose {
				ref.remember(o, direct)
			}
			lp.InprocUS[qi] = us(d)
			directUS = append(directUS, us(d))
			searches++

			// Staged replay of the same request.
			root := rec.begin("search", -1, q)
			opts := keywordindex.LookupOptions{
				MaxMatches:      cfg.MaxMatchesPerKeyword,
				DisableFuzzy:    cfg.DisableFuzzy,
				DisableSemantic: cfg.DisableSemantic,
			}
			matches := make([][]summary.Match, len(o.Keywords))
			a0 := heapAllocs()
			s := rec.begin("lookup", root, q)
			parallel.ForEach(parallel.Workers(cfg.Parallelism), len(o.Keywords), func(i int) {
				matches[i] = kwix.LookupOpts(o.Keywords[i], opts)
			})
			rec.end(s)
			lookupAllocs = append(lookupAllocs, float64(heapAllocs()-a0))
			staged := newSearchFingerprint()
			matched := true
			for i, ms := range matches {
				keywords++
				matchesTotal += len(ms)
				if len(ms) == 0 {
					matched = false
					staged.unmatched(o.Keywords[i])
				}
			}
			if matched {
				a0 = heapAllocs()
				s = rec.begin("augment", root, q)
				ag := sum.AugmentWorkers(matches, cfg.Parallelism)
				rec.end(s)
				augmentAllocs = append(augmentAllocs, float64(heapAllocs()-a0))
				nseeds := 0
				for _, ks := range ag.Seeds() {
					nseeds += len(ks)
				}
				seedsPerQuery = append(seedsPerQuery, float64(nseeds))
				augElems = append(augElems, float64(ag.NumElements()-sum.NumElements()))

				a0 = heapAllocs()
				s = rec.begin("explore", root, q)
				scorer := scoring.New(cfg.Scoring, ag)
				res := explorer.ExploreContext(ctx, ag, scorer.ElementCost, core.Options{
					K: cfg.K, DMax: cfg.DMax, Oracle: cfg.Oracle, OracleWorkers: cfg.Parallelism,
				})
				de := rec.end(s)
				exploreAllocs = append(exploreAllocs, float64(heapAllocs()-a0))
				rec.child("oracle_build", s, min(res.OracleBuild, de))
				created += res.Stats.CursorsCreated
				popped += res.Stats.CursorsPopped
				subgraphs += len(res.Subgraphs)

				s = rec.begin("map", root, q)
				var out []*engine.QueryCandidate
				for _, g := range res.Subgraphs {
					cq, _ := query.FromSubgraphVars(ag, g)
					if len(cq.Atoms) == 0 {
						continue
					}
					mapped++
					dup := false
					for _, prev := range out {
						if query.Equivalent(prev.Query, cq) {
							dup = true
							break
						}
					}
					if !dup {
						out = append(out, &engine.QueryCandidate{Query: cq, Cost: cq.Cost})
					}
				}
				sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
				rec.end(s)
				kept += len(out)
				for _, c := range out {
					staged.candidate(c.SPARQL(), c.Cost)
				}
			}
			rec.end(root)
			if staged.h.Sum64() != direct {
				lp.Diverged = append(lp.Diverged, fmt.Sprintf("%v", o.Keywords))
			}
			continue
		}

		// Execute: plan, then run. ExecuteLimitContext plans internally, so
		// the run span's self time — run minus the separately measured plan
		// — is the join.
		cand, err := ref.candidate(o)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := eng.Explain(cand); err != nil {
			return nil, fmt.Errorf("explain %s: %w", o.Body, err)
		}
		dp := time.Since(t)
		a0 := heapAllocs()
		s := rec.begin("execute", -1, q)
		rs, err := eng.ExecuteLimitContext(ctx, cand, o.Limit)
		dr := rec.end(s)
		execAllocs += heapAllocs() - a0
		if err != nil {
			return nil, fmt.Errorf("execute %s: %w", o.Body, err)
		}
		rec.child("plan", s, min(dp, dr))
		ref.remember(o, executeFingerprint(rs.Len(), rs.Truncated))
		lp.InprocUS[qi] = us(dr)
		joinIters += rs.Stats.JoinIterations
		examined += rs.Stats.RowsExamined
		rows += int64(rs.Len())
		execs++
	}

	// Stage times come out of the recorded spans: a stage is its span's
	// self time, so exploration excludes the oracle build it contains and
	// the join excludes the plan.
	stage := map[string][]float64{}
	for i, self := range selfTimes(rec.spans) {
		name := rec.spans[i].Name
		stage[name] = append(stage[name], float64(self)/1e3)
	}
	total := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	m := lp.Metrics
	if searches > 0 {
		m["engine.search_us"] = median(directUS)
		m["keywordindex.lookup_us"] = median(stage["lookup"])
		m["keywordindex.lookup_allocs"] = median(lookupAllocs)
		m["keywordindex.matches_per_kw"] = ratio(float64(matchesTotal), float64(keywords))
		m["summary.augment_us"] = median(stage["augment"])
		m["summary.augment_allocs"] = median(augmentAllocs)
		m["summary.seeds_per_query"] = median(seedsPerQuery)
		m["summary.aug_elems"] = median(augElems)
		m["core.oracle_build_us"] = median(stage["oracle_build"])
		m["core.explore_us"] = median(stage["explore"])
		m["core.explore_allocs"] = median(exploreAllocs)
		m["core.cursors_created"] = ratio(float64(created), float64(searches))
		m["core.cursors_popped"] = ratio(float64(popped), float64(searches))
		m["core.pops_per_subgraph"] = ratio(float64(popped), float64(subgraphs))
		m["query.map_us"] = median(stage["map"])
		m["query.dup_ratio"] = 1 - ratio(float64(kept), float64(mapped))
		stages := m["keywordindex.lookup_us"] + m["summary.augment_us"] + m["core.oracle_build_us"] + m["core.explore_us"] + m["query.map_us"]
		m["engine.unattributed_us"] = m["engine.search_us"] - stages
		staged := total(stage["lookup"]) + total(stage["augment"]) + total(stage["oracle_build"]) + total(stage["explore"]) + total(stage["map"])
		m["engine.replay_ratio"] = ratio(staged, total(directUS))
	}
	if execs > 0 {
		m["exec.plan_us"] = median(stage["plan"])
		m["exec.join_us"] = median(stage["execute"])
		m["exec.join_iterations"] = ratio(float64(joinIters), float64(execs))
		m["exec.examined_per_row"] = ratio(float64(examined), float64(rows))
		m["exec.allocs_per_row"] = ratio(float64(execAllocs), float64(rows))
		m["store.range_ns"] = storeRangeNS(eng.Store())
	}
	return lp, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rangeSink keeps the compiler from dropping the measured calls.
var rangeSink int

// storeRangeNS times Store.Range under the 8 bound shapes (each of
// subject, predicate, object bound or free) on 256 triples spread over
// the store, and returns the median ns/call across shapes.
func storeRangeNS(st *store.Store) float64 {
	all := st.Range(store.Wildcard, store.Wildcard, store.Wildcard)
	if all.Len() == 0 {
		return 0
	}
	const samples, reps = 256, 40
	probes := make([]store.IDTriple, samples)
	for i := range probes {
		probes[i] = all.Triple(i * all.Len() / samples)
	}
	var perShape []float64
	for shape := 0; shape < 8; shape++ {
		t := time.Now()
		for r := 0; r < reps; r++ {
			for _, p := range probes {
				s, pr, o := store.Wildcard, store.Wildcard, store.Wildcard
				if shape&1 != 0 {
					s = p.S
				}
				if shape&2 != 0 {
					pr = p.P
				}
				if shape&4 != 0 {
					o = p.O
				}
				rangeSink += st.Range(s, pr, o).Len()
			}
		}
		perShape = append(perShape, float64(time.Since(t))/float64(samples*reps))
	}
	return median(perShape)
}

// runShards replays the head of the stream through a 2-shard in-process
// cluster and through the engine, alternating, and reports the cluster's
// cost relative to the engine's on identical requests. A cluster of one
// logical dataset should cost what the engine costs; the ratio pins how
// far it is from that.
func runShards(ref *reference, triples []rdf.Triple, ops []*op) (metricSet, error) {
	b := shard.NewBuilder(2, engine.Config{})
	b.AddTriples(triples)
	cl := b.Build()
	ctx := context.Background()
	var engSearch, clSearch, engExec, clExec []float64
	for _, o := range ops {
		if o.Kind == opSearch {
			t := time.Now()
			_, _, err := ref.search(o.Keywords)
			engSearch = append(engSearch, us(time.Since(t)))
			if err != nil {
				return nil, err
			}
			t = time.Now()
			_, _, err = cl.SearchKContext(ctx, o.Keywords, 0)
			clSearch = append(clSearch, us(time.Since(t)))
			var um *engine.UnmatchedKeywordsError
			if err != nil && !errors.As(err, &um) {
				return nil, fmt.Errorf("cluster search %v: %w", o.Keywords, err)
			}
			continue
		}
		cand, err := ref.candidate(o)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		_, err = ref.eng.ExecuteLimitContext(ctx, cand, o.Limit)
		engExec = append(engExec, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		_, err = cl.ExecuteLimitContext(ctx, cand, o.Limit)
		clExec = append(clExec, us(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("cluster execute %s: %w", o.Body, err)
		}
	}
	m := metricSet{}
	if len(clSearch) > 0 {
		m["shard.search_us"] = median(clSearch)
		m["shard.search_ratio"] = ratio(median(clSearch), median(engSearch))
	}
	if len(clExec) > 0 {
		m["shard.execute_ratio"] = ratio(median(clExec), median(engExec))
	}
	return m, nil
}
