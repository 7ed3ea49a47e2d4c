package core

// Tracing-overhead regression: the span instrumentation inside
// ExploreContext (the explore/oracle_build spans) must be free when the
// context carries no trace — the contract internal/trace.StartSpan makes
// with the hot path. The test compares a warm exploration under a bare
// context against one under a context carrying an unrelated value (so
// the span lookup takes the type-assertion-miss path every call) and
// pins the difference at ≤ 2 allocations.

import (
	"context"
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

type unrelatedKey struct{}

func TestTracingDisabledExploreAllocs(t *testing.T) {
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
	matches := kwix.LookupAll([]string{"thanh tran", "publication"}, keywordindex.LookupOptions{})
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	ex := NewExplorer()
	for i := 0; i < 3; i++ {
		if res := ex.Explore(ag, scorer.ElementCost, Options{K: 10}); len(res.Subgraphs) == 0 {
			t.Fatal("warmup found no subgraphs")
		}
	}

	bare := context.Background()
	valued := context.WithValue(context.Background(), unrelatedKey{}, 1)
	base := testing.AllocsPerRun(20, func() {
		ex.ExploreContext(bare, ag, scorer.ElementCost, Options{K: 10})
	})
	instrumented := testing.AllocsPerRun(20, func() {
		ex.ExploreContext(valued, ag, scorer.ElementCost, Options{K: 10})
	})
	if instrumented > base+2 {
		t.Errorf("explore with tracing disabled allocates %.0f/op vs %.0f/op baseline; span no-ops must add ≤ 2",
			instrumented, base)
	}
}
