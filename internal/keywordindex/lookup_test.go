package keywordindex

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/snapfmt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

// The differential suite behind LookupOpts: the ID-keyed single-index
// lookup must return exactly what the single-part merge of the
// distributed path returns — same matches, same order, same Score bits —
// on built, snapshot-loaded and ApplyDelta-successor indexes.

// mergeLookup is the reference: one index's LookupRaw merged alone.
func mergeLookup(ix *Index, kw string, opt LookupOptions) []summary.Match {
	st := ix.g.Store()
	return MergeRaw([]*RawLookup{ix.LookupRaw(kw, opt)}, opt, ix.docFreq, st.Lookup)
}

// diffMatches describes the first difference between got and want, or
// returns "". Classes compare as sets, nil equal to empty, and must be
// capped at their length so that an append cannot write into the index.
func diffMatches(got, want []summary.Match) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Value != w.Value || g.Pred != w.Pred || g.Class != w.Class {
			return fmt.Sprintf("match %d: %+v, want %+v", i, g, w)
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("match %d: score %v, want %v", i, g.Score, w.Score)
		}
		if cap(g.Classes) != len(g.Classes) {
			return fmt.Sprintf("match %d: classes cap %d > len %d", i, cap(g.Classes), len(g.Classes))
		}
		gc, wc := slices.Clone(g.Classes), slices.Clone(w.Classes)
		slices.Sort(gc)
		slices.Sort(wc)
		if !slices.Equal(gc, wc) {
			return fmt.Sprintf("match %d: classes %v, want %v", i, g.Classes, w.Classes)
		}
	}
	return ""
}

// deltaCopies builds a fast-path delta for ApplyDelta: fresh copies of
// every tenth typed subject, with the same classes and predicates, and
// each literal either kept (an owner-class union on an existing value)
// or given a fresh word (new postings, new BK-tree vocabulary).
func deltaCopies(triples []rdf.Triple) []rdf.Triple {
	typeP, subP := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClass)
	bySubject := map[rdf.Term][]rdf.Triple{}
	var typed []rdf.Term
	for _, t := range triples {
		if t.P == subP {
			continue
		}
		if t.P == typeP && len(bySubject[t.S]) == 0 {
			typed = append(typed, t.S)
		}
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	var out []rdf.Triple
	for i := 0; i < len(typed); i += 10 {
		s := typed[i]
		fresh := rdf.NewIRI(s.Value + "/copy")
		for j, t := range bySubject[s] {
			o := t.O
			if o.Kind == rdf.Literal && j%2 == 0 {
				o = rdf.NewLiteral(o.Value + " Zeugma" + fmt.Sprint(i))
			}
			out = append(out, rdf.Triple{S: fresh, P: t.P, O: o})
		}
	}
	return out
}

// lookupWorld is one dataset's three index forms.
type lookupWorld struct {
	name  string
	forms map[string]*Index
}

func newLookupWorld(t testing.TB, name string, triples []rdf.Triple) lookupWorld {
	t.Helper()
	th := thesaurus.Default()
	base := store.New()
	base.AddAll(triples)
	base.Build()
	g := graph.Build(base)
	built := Build(g, th)

	path := filepath.Join(t.TempDir(), "kwix.swdb")
	w, err := snapfmt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.WriteSections(w, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapfmt.Open(path, snapfmt.Options{Mode: snapfmt.ModeMmap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	loaded, err := ReadSections(r, 0, g, th)
	if err != nil {
		t.Fatal(err)
	}

	d := store.NewDelta(base)
	for _, tr := range deltaCopies(triples) {
		d.Add(tr)
	}
	snap := d.Snapshot()
	merged := store.MergeDelta(base, snap)
	succ, ok := ApplyDelta(built, graph.Build(merged), snap.Triples())
	if !ok {
		t.Fatalf("%s: ApplyDelta refused the copy delta", name)
	}
	return lookupWorld{name: name, forms: map[string]*Index{"built": built, "loaded": loaded, "delta": succ}}
}

// probeKeywords lists every vocabulary term, every multi-token name,
// one-edit misspellings of label words, and thesaurus words.
func probeKeywords(ix *Index) []string {
	seen := map[string]bool{}
	var kws []string
	add := func(kw string) {
		if !seen[kw] {
			seen[kw] = true
			kws = append(kws, kw)
		}
	}
	for _, term := range ix.vocabulary() {
		add(term)
	}
	st := ix.g.Store()
	for ref := 0; ref < ix.numRefs(); ref++ {
		m := ix.refMatch(int32(ref))
		if m.Kind != summary.MatchValue {
			continue
		}
		label, n := ix.refLabel(int32(ref))
		if n >= 2 && st.Term(m.Pred).LocalName() == "name" {
			add(label)
		}
		if ref%7 == 0 {
			for _, w := range analysis.SplitWords(label) {
				if len(w) >= 4 && !isDigits(w) {
					add(w[:1] + w[2:])          // deletion
					add(w[:2] + "q" + w[3:])    // substitution
					add(w + " " + w[:len(w)-1]) // two tokens, one misspelled
				}
			}
		}
	}
	for _, w := range []string{
		"paper", "writer", "creator", "scientist", "scholar", "periodical",
		"meeting", "symposium", "references", "label", "date", "theme",
		"forum", "institution", "organisation", "film", "picture", "town",
		"nation", "firm", "corporation", "athletics", "melody", "college",
	} {
		add(w)
	}
	return kws
}

func TestLookupOptsMatchesMergeRaw(t *testing.T) {
	worlds := []lookupWorld{
		newLookupWorld(t, "dblp", datagen.DBLPTriples(datagen.DBLPConfig{Publications: 250, Seed: 3})),
		newLookupWorld(t, "tap", datagen.TAPTriples(datagen.TAPConfig{InstancesPerClass: 4, Seed: 3})),
	}
	for _, w := range worlds {
		kws := probeKeywords(w.forms["built"])
		if len(kws) < 500 {
			t.Fatalf("%s: only %d probe keywords", w.name, len(kws))
		}
		for form, ix := range w.forms {
			fuzzy, semantic := 0, 0
			for _, mm := range []int{1, 8, 50} {
				opt := LookupOptions{MaxMatches: mm}
				for _, kw := range kws {
					got, want := ix.LookupOpts(kw, opt), mergeLookup(ix, kw, opt)
					if d := diffMatches(got, want); d != "" {
						t.Fatalf("%s/%s M=%d %q: %s", w.name, form, mm, kw, d)
					}
					if mm == 8 && len(got) > 0 {
						for _, h := range ix.LookupRaw(kw, opt).Hits {
							if len(h.Fuzzy) > 0 {
								fuzzy++
							}
							if len(h.Semantic) > 0 {
								semantic++
							}
						}
					}
				}
			}
			t.Logf("%s/%s: %d keywords, %d fuzzy and %d semantic tokens", w.name, form, len(kws), fuzzy, semantic)
			if fuzzy == 0 || semantic == 0 {
				t.Errorf("%s/%s: probes hit %d fuzzy and %d semantic tokens, want both > 0", w.name, form, fuzzy, semantic)
			}
		}
	}
}

// TestLookupOptsConcurrent runs lookups from 8 goroutines on one index
// (the engine's fan-out plus several connections): each must see the
// sequential answers while the DF memo fills under it.
func TestLookupOptsConcurrent(t *testing.T) {
	w := newLookupWorld(t, "dblp", datagen.DBLPTriples(datagen.DBLPConfig{Publications: 150, Seed: 5}))
	for form, ix := range w.forms {
		kws := probeKeywords(ix)
		opt := LookupOptions{}
		want := make(map[string][]summary.Match, len(kws))
		for _, kw := range kws {
			want[kw] = mergeLookup(ix, kw, opt)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				order := slices.Clone(kws)
				rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, kw := range order {
					if d := diffMatches(ix.LookupOpts(kw, opt), want[kw]); d != "" {
						errs <- fmt.Sprintf("%s %q: %s", form, kw, d)
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// BenchmarkLookupOpts times the three lookup shapes of a search: a common
// title word (long posting run), a two-token name (run intersection),
// and a misspelling (BK-tree probe).
func BenchmarkLookupOpts(b *testing.B) {
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 2000, Seed: 1}))
	ix := Build(graph.Build(st), thesaurus.Default())
	for _, kw := range []string{"database", "thanh tran", "cimano"} {
		b.Run(kw, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(ix.LookupOpts(kw, LookupOptions{})) == 0 {
					b.Fatalf("%q: no matches", kw)
				}
			}
		})
	}
}
