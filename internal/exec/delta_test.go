package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/store"
)

// randomDeltaWorld builds a base store, a delta over it, and the merged
// reference store, from one shared triple universe.
func randomDeltaWorld(rng *rand.Rand, nBase, nDelta int) (*store.Store, *store.DeltaSnap, *store.Store) {
	mk := func(n, subjects, preds, objects int) []rdf.Triple {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(subjects))),
				P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(preds))),
				O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(objects))),
			}
		}
		return ts
	}
	baseTs := mk(nBase, 8, 4, 8)
	deltaTs := mk(nDelta, 12, 5, 12) // wider universe → some new terms

	base := store.New()
	base.AddAll(baseTs)
	base.Build()
	d := store.NewDelta(base)
	for _, tr := range deltaTs {
		d.Add(tr)
	}
	snap := d.Snapshot()
	return base, snap, store.MergeDelta(base, snap)
}

// randomPatternQuery builds a random 1–3 atom conjunctive query whose
// predicates come from the shared universe.
func randomPatternQuery(rng *rand.Rand) *query.ConjunctiveQuery {
	vars := []string{"x", "y", "z"}
	n := 1 + rng.Intn(3)
	q := &query.ConjunctiveQuery{}
	for i := 0; i < n; i++ {
		at := query.Atom{Pred: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(5)))}
		if rng.Intn(3) > 0 {
			at.S = query.Variable(vars[rng.Intn(len(vars))])
		} else {
			at.S = query.Constant(rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(12))))
		}
		if rng.Intn(3) > 0 {
			at.O = query.Variable(vars[rng.Intn(len(vars))])
		} else {
			at.O = query.Constant(rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(12))))
		}
		q.Atoms = append(q.Atoms, at)
	}
	seen := map[string]bool{}
	for _, at := range q.Atoms {
		if at.S.IsVar() && !seen[at.S.Var] {
			seen[at.S.Var] = true
			q.Distinguished = append(q.Distinguished, at.S.Var)
		}
		if at.O.IsVar() && !seen[at.O.Var] {
			seen[at.O.Var] = true
			q.Distinguished = append(q.Distinguished, at.O.Var)
		}
	}
	if len(q.Distinguished) == 0 {
		// All-constant query: still legal, no distinguished vars needed.
		q.Distinguished = nil
	}
	return q
}

// TestExecuteDeltaMatchesMergedStore is the executor's overlay contract:
// evaluating with a delta overlay must be bit-identical — rows, order,
// truncation — to evaluating the merged store.
func TestExecuteDeltaMatchesMergedStore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		base, snap, merged := randomDeltaWorld(rng, 60, 25)
		overlay := New(base)
		ref := New(merged)
		for qi := 0; qi < 20; qi++ {
			q := randomPatternQuery(rng)
			limit := 0
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(5)
			}
			got, err := overlay.ExecuteLimitContextDelta(context.Background(), q, limit, snap)
			if err != nil {
				t.Fatalf("round %d q %d: overlay: %v", round, qi, err)
			}
			want, err := ref.ExecuteLimitContext(context.Background(), q, limit)
			if err != nil {
				t.Fatalf("round %d q %d: merged: %v", round, qi, err)
			}
			if got.Truncated != want.Truncated || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("round %d q %d: overlay diverges from merged store\nquery: %+v\ngot  (%d rows, trunc=%v): %v\nwant (%d rows, trunc=%v): %v",
					round, qi, q, got.Len(), got.Truncated, got.Rows, want.Len(), want.Truncated, want.Rows)
			}
		}
	}
}

// TestExecuteDeltaNewTermsOnly: constants that exist only in the delta
// must resolve (extension dictionary) and join against base rows.
func TestExecuteDeltaNewTermsOnly(t *testing.T) {
	base := store.New()
	base.AddAll(rdf.MustParseFig1())
	base.Build()

	d := store.NewDelta(base)
	pub9 := rdf.NewIRI(rdf.ExampleNS + "pub9")
	d.Add(rdf.Triple{S: pub9, P: ex("author"), O: ex("re2")})
	d.Add(rdf.Triple{S: pub9, P: ex("year"), O: rdf.NewLiteral("2026")})
	snap := d.Snapshot()

	e := New(base)
	q := &query.ConjunctiveQuery{
		Atoms: []query.Atom{
			{Pred: ex("year"), S: query.Variable("x"), O: query.Constant(rdf.NewLiteral("2026"))},
			{Pred: ex("author"), S: query.Variable("x"), O: query.Variable("y")},
			{Pred: ex("name"), S: query.Variable("y"), O: query.Variable("n")},
		},
		Distinguished: []string{"x", "n"},
	}

	// Without the overlay the new year literal is unknown → empty.
	rs, err := e.ExecuteLimitContext(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("sealed engine sees unacknowledged delta: %v", rs.Rows)
	}

	rs, err = e.ExecuteLimitContextDelta(context.Background(), q, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("overlay query: got %d rows, want 1: %v", rs.Len(), rs.Rows)
	}
	if rs.Rows[0][0] != pub9 || rs.Rows[0][1] != rdf.NewLiteral("P. Cimiano") {
		t.Fatalf("overlay row = %v", rs.Rows[0])
	}
}

// TestExecuteDeltaEmptyNoExtraAllocs is the satellite guard: with a nil
// or empty delta, the execute hot path must allocate exactly what the
// sealed-engine path does.
func TestExecuteDeltaEmptyNoExtraAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	base := store.New()
	base.AddAll(rdf.MustParseFig1())
	base.Build()
	e := New(base)
	q := fig1cQuery()
	ctx := context.Background()

	// Warm the pool.
	for i := 0; i < 5; i++ {
		if _, err := e.ExecuteLimitContext(ctx, q, 0); err != nil {
			t.Fatal(err)
		}
	}

	sealed := testing.AllocsPerRun(100, func() {
		if _, err := e.ExecuteLimitContext(ctx, q, 0); err != nil {
			t.Fatal(err)
		}
	})
	nilDelta := testing.AllocsPerRun(100, func() {
		if _, err := e.ExecuteLimitContextDelta(ctx, q, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	emptySnap := store.NewDelta(base).Snapshot()
	emptyDelta := testing.AllocsPerRun(100, func() {
		if _, err := e.ExecuteLimitContextDelta(ctx, q, 0, emptySnap); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm allocs/op: sealed=%.0f nil-delta=%.0f empty-delta=%.0f", sealed, nilDelta, emptyDelta)
	if nilDelta > sealed {
		t.Fatalf("nil-delta path allocates %.0f/op vs sealed %.0f/op", nilDelta, sealed)
	}
	if emptyDelta > sealed {
		t.Fatalf("empty-delta path allocates %.0f/op vs sealed %.0f/op", emptyDelta, sealed)
	}
}
