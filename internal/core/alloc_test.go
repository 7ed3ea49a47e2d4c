package core

// Allocation regression tests for the hot path: a warm Explorer must not
// fall back into per-cursor allocation. The pins below are deliberately
// loose upper bounds — steady-state work (result materialization, the
// candidate list, the k result subgraphs) still allocates a bounded
// handful per query — but they sit 1–2 orders of magnitude below the
// per-cursor regime this PR removed (thousands of allocations per
// exploration), so any regression of the slab/heap/dense-state design
// trips them immediately.

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/race"
	"repro/internal/scoring"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

func TestExploreSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if testing.Short() {
		t.Skip("builds a DBLP graph")
	}
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	matches := kwix.LookupAll([]string{"thanh tran", "publication"}, keywordindex.LookupOptions{})
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	ex := NewExplorer()
	// Warm the explorer (and faults in the slab chunks) before measuring.
	for i := 0; i < 3; i++ {
		if res := ex.Explore(ag, scorer.ElementCost, Options{K: 10}); len(res.Subgraphs) == 0 {
			t.Fatal("warmup found no subgraphs")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		ex.Explore(ag, scorer.ElementCost, Options{K: 10})
	})
	// This exploration pops ~2k cursors; before the slab rewrite it cost
	// ~2.5k allocations. Steady state is ~100 (results + candidate list);
	// the pin leaves slack for GC-timing noise around the state pool.
	const maxAllocs = 400
	if allocs > maxAllocs {
		t.Errorf("Explore allocates %.0f/op on a warm explorer, want ≤ %d", allocs, maxAllocs)
	}
}

func TestExploreManyKeywordsSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if testing.Short() {
		t.Skip("builds a DBLP graph")
	}
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 500, Seed: 1}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	matches := kwix.LookupAll([]string{"thanh tran", "publication", "2005"}, keywordindex.LookupOptions{})
	for _, ms := range matches {
		if len(ms) == 0 {
			t.Fatal("workload keyword unmatched; pick another query")
		}
	}
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	ex := NewExplorer()
	for i := 0; i < 3; i++ {
		ex.Explore(ag, scorer.ElementCost, Options{K: 10})
	}
	allocs := testing.AllocsPerRun(20, func() {
		ex.Explore(ag, scorer.ElementCost, Options{K: 10})
	})
	const maxAllocs = 600
	if allocs > maxAllocs {
		t.Errorf("3-keyword Explore allocates %.0f/op on a warm explorer, want ≤ %d", allocs, maxAllocs)
	}
}
