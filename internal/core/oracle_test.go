package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/scoring"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

func TestOracleDistances(t *testing.T) {
	ag, _ := fig1Aug(t)
	cf := c1(ag)
	oracle := NewDistanceOracle(ag, cf, ag.Seeds())
	// Every seed's own distance is its element cost (1 under C1).
	for i, ki := range ag.Seeds() {
		for _, s := range ki {
			if d := oracle.dist[i][s]; d != 1 {
				t.Fatalf("seed distance = %v, want 1", d)
			}
		}
	}
	// Under C1 the connecting Researcher class is at distance 3 from the
	// cimiano value (value → attr → class) and 5 from the year value.
	for i := 0; i < ag.NumElements(); i++ {
		el := summary.ElemID(i)
		if !oracle.Reachable(el) {
			continue
		}
		// Distances satisfy the triangle property along adjacency.
		for _, nb := range ag.Neighbors(el) {
			for k := range oracle.dist {
				if oracle.dist[k][nb] > oracle.dist[k][el]+cf(nb)+1e-9 {
					t.Fatalf("triangle violated: d[%d]=%v, via %d = %v",
						nb, oracle.dist[k][nb], el, oracle.dist[k][el]+cf(nb))
				}
			}
		}
	}
}

func TestOracleSameResults(t *testing.T) {
	// With and without the oracle, exploration must return identical
	// cost sequences on the running example and on random graphs.
	ag, _ := fig1Aug(t)
	base := Explore(ag, c1(ag), Options{K: 10, Oracle: OracleOff})
	withOracle := Explore(ag, c1(ag), Options{K: 10, UseOracle: true})
	if len(base.Subgraphs) != len(withOracle.Subgraphs) {
		t.Fatalf("result counts differ: %d vs %d", len(base.Subgraphs), len(withOracle.Subgraphs))
	}
	for i := range base.Subgraphs {
		if !almostEq(base.Subgraphs[i].Cost, withOracle.Subgraphs[i].Cost) {
			t.Fatalf("cost %d differs: %v vs %v", i,
				base.Subgraphs[i].Cost, withOracle.Subgraphs[i].Cost)
		}
	}

	rng := rand.New(rand.NewSource(123))
	ns := "http://o/"
	for round := 0; round < 20; round++ {
		st := store.New()
		nCls, nEnt := 3+rng.Intn(3), 8+rng.Intn(10)
		var ents []rdf.Term
		for i := 0; i < nEnt; i++ {
			e := rdf.NewIRI(ns + "e" + itoaTest(i))
			ents = append(ents, e)
			st.Add(rdf.NewTriple(e, rdf.NewIRI(rdf.RDFType),
				rdf.NewIRI(ns+"C"+itoaTest(rng.Intn(nCls)))))
		}
		for i := 0; i < nEnt*2; i++ {
			st.Add(rdf.NewTriple(ents[rng.Intn(nEnt)],
				rdf.NewIRI(ns+"p"+itoaTest(rng.Intn(3))), ents[rng.Intn(nEnt)]))
		}
		sg := summary.Build(graph.Build(st))
		var perKw [][]summary.Match
		for i := 0; i < 2+rng.Intn(2); i++ {
			cid, ok := st.Lookup(rdf.NewIRI(ns + "C" + itoaTest(rng.Intn(nCls))))
			if !ok {
				continue
			}
			perKw = append(perKw, []summary.Match{{Kind: summary.MatchClass, Score: 1, Class: cid}})
		}
		if len(perKw) < 2 {
			continue
		}
		agr := sg.Augment(perKw)
		cf := c1(agr)
		a := Explore(agr, cf, Options{K: 5, Oracle: OracleOff})
		b := Explore(agr, cf, Options{K: 5, UseOracle: true})
		if len(a.Subgraphs) != len(b.Subgraphs) {
			t.Fatalf("round %d: counts differ %d vs %d", round, len(a.Subgraphs), len(b.Subgraphs))
		}
		for i := range a.Subgraphs {
			if !almostEq(a.Subgraphs[i].Cost, b.Subgraphs[i].Cost) {
				t.Fatalf("round %d: cost %d differs: %v vs %v",
					round, i, a.Subgraphs[i].Cost, b.Subgraphs[i].Cost)
			}
		}
	}
}

func TestOraclePrunesDisconnectedComponents(t *testing.T) {
	// Two disconnected islands; keyword 2 matches only island B. Cursors
	// of keyword 1 exploring island A are discarded immediately with the
	// oracle, so exploration does strictly less work.
	st := store.New()
	ns := "http://isl/"
	tri := func(s, p, o string) {
		st.Add(rdf.NewTriple(rdf.NewIRI(ns+s), rdf.NewIRI(ns+p), rdf.NewIRI(ns+o)))
	}
	typ := func(s, c string) {
		st.Add(rdf.NewTriple(rdf.NewIRI(ns+s), rdf.NewIRI(rdf.RDFType), rdf.NewIRI(ns+c)))
	}
	// Island A: a chain of classes A0..A5.
	for i := 0; i < 6; i++ {
		typ("a"+itoaTest(i), "A"+itoaTest(i))
		if i > 0 {
			tri("a"+itoaTest(i-1), "pa", "a"+itoaTest(i))
		}
	}
	// Island B: two classes.
	typ("b0", "B0")
	typ("b1", "B1")
	tri("b0", "pb", "b1")

	sg := summary.Build(graph.Build(st))
	id := func(l string) store.ID {
		v, _ := st.Lookup(rdf.NewIRI(ns + l))
		return v
	}
	// Keyword 1 matches both islands (class A0 and B0); keyword 2 only B1.
	perKw := [][]summary.Match{
		{{Kind: summary.MatchClass, Score: 1, Class: id("A0")},
			{Kind: summary.MatchClass, Score: 1, Class: id("B0")}},
		{{Kind: summary.MatchClass, Score: 1, Class: id("B1")}},
	}
	ag := sg.Augment(perKw)
	cf := c1(ag)
	plain := Explore(ag, cf, Options{K: 3, Oracle: OracleOff})
	pruned := Explore(ag, cf, Options{K: 3, UseOracle: true})
	if len(plain.Subgraphs) != len(pruned.Subgraphs) {
		t.Fatalf("results differ: %d vs %d", len(plain.Subgraphs), len(pruned.Subgraphs))
	}
	if pruned.Stats.CursorsPopped >= plain.Stats.CursorsPopped {
		t.Fatalf("oracle should cut pops: %d vs %d",
			pruned.Stats.CursorsPopped, plain.Stats.CursorsPopped)
	}
}

func TestOracleUnreachable(t *testing.T) {
	ag, _ := fig1Aug(t)
	oracle := NewDistanceOracle(ag, c1(ag), [][]summary.ElemID{{ag.Seeds()[0][0]}})
	if !oracle.Reachable(ag.Seeds()[0][0]) {
		t.Fatal("seed must be reachable from itself")
	}
	if r := oracle.Remaining(0, ag.Seeds()[0][0]); r != 0 {
		t.Fatalf("Remaining excluding the only keyword = %v, want 0", r)
	}
}

func itoaTest(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func TestOracleCompletionBound(t *testing.T) {
	ag, _ := fig1Aug(t)
	cf := c1(ag)
	oracle := NewDistanceOracle(ag, cf, ag.Seeds())
	for i := range ag.Seeds() {
		for e := 0; e < ag.NumElements(); e++ {
			el := summary.ElemID(e)
			g := oracle.Completion(i, el)
			// Taking the element itself as the meeting point shows
			// g_i(n) ≤ Σ_{j≠i} d_j(n).
			if r := oracle.Remaining(i, el); g > r+1e-9 {
				t.Fatalf("Completion(%d,%d)=%v exceeds Remaining=%v", i, e, g, r)
			}
			// The Dijkstra recurrence: g_i(n) ≤ g_i(nb) + c(nb).
			for _, nb := range ag.Neighbors(el) {
				if g > oracle.Completion(i, nb)+cf(nb)+1e-9 {
					t.Fatalf("recurrence violated at %d via %d: %v > %v + %v",
						e, nb, g, oracle.Completion(i, nb), cf(nb))
				}
			}
		}
	}
}

func TestOracleBuildCancellation(t *testing.T) {
	// Oracle construction must poll its context: a cancelled context
	// aborts the per-keyword Dijkstras promptly and Build reports the
	// cancellation instead of returning a half-filled (unusable) oracle.
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	matches := kwix.LookupAll([]string{"thanh tran", "publication", "2005"},
		keywordindex.LookupOptions{MaxMatches: 8})
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired when Build starts
	var o DistanceOracle
	start := time.Now()
	if err := o.Build(ctx, ag, scorer.ElementCost, ag.Seeds(), 2); err == nil {
		t.Fatal("Build with a cancelled context returned nil error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled Build took %v, want a prompt abort", d)
	}

	// And the exploration path surfaces it as a Cancelled termination.
	res := defaultExplorer.ExploreContext(ctx, ag, scorer.ElementCost, Options{K: 10, UseOracle: true})
	if res.Stats.Terminated != Cancelled {
		t.Fatalf("exploration under cancelled ctx terminated %v, want Cancelled", res.Stats.Terminated)
	}
}

func TestOracleBuildParallelDeterministic(t *testing.T) {
	// The per-keyword Dijkstras are independent, so the tables must not
	// depend on how many workers built them.
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 1000, Seed: 3}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	matches := kwix.LookupAll([]string{"thanh tran", "aifb", "publication", "2005", "conference"},
		keywordindex.LookupOptions{MaxMatches: 8})
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	var serial, wide DistanceOracle
	if err := serial.Build(context.Background(), ag, scorer.ElementCost, ag.Seeds(), 1); err != nil {
		t.Fatal(err)
	}
	if err := wide.Build(context.Background(), ag, scorer.ElementCost, ag.Seeds(), 8); err != nil {
		t.Fatal(err)
	}
	for i := range serial.dist {
		for n := range serial.dist[i] {
			if serial.dist[i][n] != wide.dist[i][n] {
				t.Fatalf("dist[%d][%d]: serial %v, parallel %v", i, n, serial.dist[i][n], wide.dist[i][n])
			}
			if serial.comp[i][n] != wide.comp[i][n] {
				t.Fatalf("comp[%d][%d]: serial %v, parallel %v", i, n, serial.comp[i][n], wide.comp[i][n])
			}
		}
	}
}

func TestOracleBuildSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	// The parallel oracle build recycles its distance rows, cost table,
	// and per-worker frontiers: a warm rebuild costs only the fork-join
	// bookkeeping (a handful of closure/goroutine allocations), not
	// per-element or per-keyword storage.
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1}))
	g := graph.Build(st)
	sg := summary.Build(g)
	kwix := keywordindex.Build(g, thesaurus.Default())
	matches := kwix.LookupAll([]string{"thanh tran", "aifb", "publication", "2005", "conference"},
		keywordindex.LookupOptions{MaxMatches: 8})
	ag := sg.Augment(matches)
	scorer := scoring.New(scoring.Matching, ag)

	var o DistanceOracle
	for i := 0; i < 3; i++ {
		if err := o.Build(context.Background(), ag, scorer.ElementCost, ag.Seeds(), 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := o.Build(context.Background(), ag, scorer.ElementCost, ag.Seeds(), 2); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 32
	if allocs > maxAllocs {
		t.Errorf("warm parallel oracle Build allocates %.0f/op, want ≤ %d", allocs, maxAllocs)
	}
}
