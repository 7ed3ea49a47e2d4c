package exec

// Tracing-overhead regression for the execute hot path: the plan/join
// spans in ExecuteLimitContext must cost nothing when the context carries
// no trace. A warm execute under a context holding an unrelated value
// (forcing the span lookup's type-assertion miss on every call) may
// allocate at most 2 more than one under a bare context.

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/race"
	"repro/internal/store"
)

type unrelatedKey struct{}

func TestTracingDisabledExecuteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 1500, Seed: 3}))
	st.Build()
	e := New(st)
	q := benchStarQuery()
	const limit = 10

	if _, err := e.ExecuteLimit(q, limit); err != nil { // warm the pool
		t.Fatal(err)
	}

	bare := context.Background()
	valued := context.WithValue(context.Background(), unrelatedKey{}, 1)
	base := testing.AllocsPerRun(50, func() {
		if _, err := e.ExecuteLimitContext(bare, q, limit); err != nil {
			t.Fatal(err)
		}
	})
	instrumented := testing.AllocsPerRun(50, func() {
		if _, err := e.ExecuteLimitContext(valued, q, limit); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented > base+2 {
		t.Errorf("execute with tracing disabled allocates %.0f/op vs %.0f/op baseline; span no-ops must add ≤ 2",
			instrumented, base)
	}
}
