package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/race"
	"repro/internal/rdf"
)

// randStore builds a randomized store whose ID space is dense and whose
// triple set contains duplicates (exercising dedup) and repeated
// components (exercising multi-row ranges in every ordering).
func randStore(rng *rand.Rand, nTerms, nTriples int) *Store {
	st := New()
	ids := make([]ID, nTerms)
	for i := range ids {
		ids[i] = st.Intern(rdf.NewIRI(fmt.Sprintf("http://x/t%d", i)))
	}
	for i := 0; i < nTriples; i++ {
		st.AddID(IDTriple{
			S: ids[rng.Intn(nTerms)],
			P: ids[rng.Intn(nTerms/4+1)], // few predicates, like real data
			O: ids[rng.Intn(nTerms)],
		})
	}
	return st
}

// referenceOrdering reproduces the index-selection rule Range documents
// (and the pre-SoA Match implemented): which ordering serves a pattern.
func referenceOrdering(sp, pp, op ID) func(a, b IDTriple) bool {
	switch {
	case sp != Wildcard && op != Wildcard && pp == Wildcard:
		return lessOSP
	case sp != Wildcard:
		return lessSPO
	case pp != Wildcard:
		return lessPOS
	case op != Wildcard:
		return lessOSP
	default:
		return lessSPO
	}
}

// referenceMatch filters the deduplicated triples by the pattern and
// sorts them in the serving ordering — the exact sequence the pre-SoA
// permutation iterator produced.
func referenceMatch(st *Store, sp, pp, op ID) []IDTriple {
	var out []IDTriple
	for _, t := range st.Triples() {
		if (sp == Wildcard || t.S == sp) && (pp == Wildcard || t.P == pp) && (op == Wildcard || t.O == op) {
			out = append(out, t)
		}
	}
	less := referenceOrdering(sp, pp, op)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// patterns8 yields one pattern per bound/unbound shape (2^3 = 8),
// plus extra probes per shape with components sampled from the data and
// from absent IDs.
func patterns8(rng *rand.Rand, st *Store) [][3]ID {
	tris := st.Triples()
	pick := func() IDTriple { return tris[rng.Intn(len(tris))] }
	var pats [][3]ID
	for shape := 0; shape < 8; shape++ {
		for probe := 0; probe < 8; probe++ {
			t := pick()
			p := [3]ID{}
			if shape&4 != 0 {
				p[0] = t.S
			}
			if shape&2 != 0 {
				p[1] = t.P
			}
			if shape&1 != 0 {
				p[2] = t.O
			}
			if probe == 7 && shape != 0 {
				// Mismatched components: bound positions from unrelated
				// triples, usually yielding an empty range.
				u := pick()
				if p[1] != 0 {
					p[1] = u.P
				}
				if p[2] != 0 {
					p[2] = u.O
				}
			}
			pats = append(pats, p)
		}
	}
	return pats
}

// TestRangeMatchesReferenceAllShapes pins Range (and therefore Match,
// which is Range boxed) to the pre-SoA iteration results for every
// bound/unbound pattern shape on randomized stores.
func TestRangeMatchesReferenceAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		st := randStore(rng, 30+rng.Intn(50), 1+rng.Intn(400))
		for _, p := range patterns8(rng, st) {
			want := referenceMatch(st, p[0], p[1], p[2])
			v := st.Range(p[0], p[1], p[2])
			if v.Len() != len(want) {
				t.Fatalf("trial %d pattern %v: Range.Len() = %d, want %d", trial, p, v.Len(), len(want))
			}
			for i := range want {
				if got := v.Triple(i); got != want[i] {
					t.Fatalf("trial %d pattern %v row %d: got %v, want %v", trial, p, i, got, want[i])
				}
			}
			if got := st.Count(p[0], p[1], p[2]); got != len(want) {
				t.Fatalf("trial %d pattern %v: Count = %d, want %d", trial, p, got, len(want))
			}
			it := st.Match(p[0], p[1], p[2])
			for i := 0; it.Next(); i++ {
				if it.Triple() != want[i] {
					t.Fatalf("trial %d pattern %v: iterator row %d = %v, want %v", trial, p, i, it.Triple(), want[i])
				}
			}
		}
	}
}

// TestRangeViewColumnsAgree checks the three View columns are parallel:
// every row's components satisfy the bound positions of the pattern.
func TestRangeViewColumnsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := randStore(rng, 60, 500)
	for _, p := range patterns8(rng, st) {
		v := st.Range(p[0], p[1], p[2])
		for i := 0; i < v.Len(); i++ {
			if p[0] != Wildcard && v.S[i] != p[0] {
				t.Fatalf("pattern %v row %d: S = %d", p, i, v.S[i])
			}
			if p[1] != Wildcard && v.P[i] != p[1] {
				t.Fatalf("pattern %v row %d: P = %d", p, i, v.P[i])
			}
			if p[2] != Wildcard && v.O[i] != p[2] {
				t.Fatalf("pattern %v row %d: O = %d", p, i, v.O[i])
			}
		}
	}
}

// TestRangeZeroAlloc is the regression the join core depends on: a
// pattern lookup on a built store allocates nothing, for any shape.
func TestRangeZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	st := randStore(rng, 50, 400)
	st.Build()
	pats := patterns8(rng, st)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pats {
			v := st.Range(p[0], p[1], p[2])
			sink += v.Len()
		}
	})
	if allocs != 0 {
		t.Fatalf("Range allocates: %.1f allocs per %d-pattern run, want 0", allocs, len(pats))
	}
	_ = sink
}

// TestDictionaryViewRangeEmpty pins the catalog-view behavior the
// sharded coordinator relies on: the dictionary resolves, ranges are
// empty.
func TestDictionaryViewRangeEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := randStore(rng, 20, 50)
	st.Build()
	dv := st.DictionaryView()
	if dv.NumTerms() != st.NumTerms() {
		t.Fatalf("view dictionary size %d, want %d", dv.NumTerms(), st.NumTerms())
	}
	tr := st.Triples()[0]
	if n := dv.Range(tr.S, tr.P, tr.O).Len(); n != 0 {
		t.Fatalf("view Range found %d triples, want 0", n)
	}
	if n := dv.Range(Wildcard, Wildcard, Wildcard).Len(); n != 0 {
		t.Fatalf("view full Range found %d triples, want 0", n)
	}
}
