package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/scoring"
)

func fig1Engine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{})
	n, err := e.LoadTurtle(strings.NewReader(rdf.Fig1ExampleTurtle))
	if err != nil {
		t.Fatal(err)
	}
	if n != 22 {
		t.Fatalf("loaded %d triples, want 22", n)
	}
	return e
}

// TestRunningExampleEndToEnd is the paper's Sec. III walkthrough: the
// keyword query {2006, cimiano, aifb} yields the Fig. 1c query as the
// top candidate, and executing it returns pub1.
func TestRunningExampleEndToEnd(t *testing.T) {
	e := fig1Engine(t)
	cands, info, err := e.Search([]string{"2006", "cimiano", "aifb"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if !info.Guaranteed {
		t.Error("top-k guarantee should hold")
	}
	top := cands[0]
	sparql := top.SPARQL()
	for _, want := range []string{"Publication", "year", "author", "worksAt", "2006"} {
		if !strings.Contains(sparql, want) {
			t.Errorf("top SPARQL missing %q:\n%s", want, sparql)
		}
	}
	rs, err := e.Execute(top)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("executing top query: %d answers, want 1\n%s", rs.Len(), rs)
	}
	found := false
	for _, term := range rs.Rows[0] {
		if term == rdf.NewIRI(rdf.ExampleNS+"pub1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("answer should bind pub1: %v", rs.Rows[0])
	}
}

func TestSearchUnmatchedKeyword(t *testing.T) {
	e := fig1Engine(t)
	_, _, err := e.Search([]string{"aifb", "qqqqzz"})
	ue, ok := err.(*UnmatchedKeywordsError)
	if !ok {
		t.Fatalf("want UnmatchedKeywordsError, got %v", err)
	}
	if len(ue.Keywords) != 1 || ue.Keywords[0] != "qqqqzz" {
		t.Fatalf("unmatched = %v", ue.Keywords)
	}
}

func TestSearchEmptyKeywords(t *testing.T) {
	e := fig1Engine(t)
	if _, _, err := e.Search(nil); err == nil {
		t.Fatal("empty keyword query should error")
	}
}

func TestCandidatesSortedAndDeduplicated(t *testing.T) {
	e := fig1Engine(t)
	cands, _, err := e.Search([]string{"cimiano", "publication"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Cost < cands[i-1].Cost {
			t.Fatal("candidates not sorted by cost")
		}
	}
}

func TestSemanticSearchThroughSynonym(t *testing.T) {
	e := fig1Engine(t)
	// "paper" should reach the Publication class via the thesaurus.
	cands, _, err := e.Search([]string{"paper", "cimiano"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if strings.Contains(c.SPARQL(), "Publication") {
			found = true
		}
	}
	if !found {
		t.Fatal("synonym 'paper' did not reach Publication")
	}
	// With semantics disabled the keyword is unmatched.
	e2 := New(Config{DisableSemantic: true, DisableFuzzy: true})
	e2.AddTriples(rdf.MustParseFig1())
	if _, _, err := e2.Search([]string{"paper", "cimiano"}); err == nil {
		t.Fatal("expected unmatched keyword without semantics")
	}
}

func TestSchemeSelection(t *testing.T) {
	for _, s := range []scoring.Scheme{scoring.PathLength, scoring.Popularity, scoring.Matching} {
		e := New(Config{Scoring: s})
		e.AddTriples(rdf.MustParseFig1())
		cands, _, err := e.Search([]string{"2006", "aifb"})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%v: no candidates", s)
		}
	}
	// The configured default is C3.
	e := New(Config{})
	if e.Config().Scoring != scoring.Matching {
		t.Fatalf("default scheme = %v, want C3", e.Config().Scoring)
	}
}

func TestAnswersForTop(t *testing.T) {
	e := New(Config{})
	e.AddTriples(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 300, Seed: 1}))
	cands, _, err := e.Search([]string{"tran", "publication"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates on DBLP")
	}
	rs, processed, err := e.AnswersForTop(cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	if processed == 0 {
		t.Fatal("no queries processed")
	}
	if rs.Len() == 0 {
		t.Fatal("no answers collected")
	}
}

func TestBuildIsIdempotentAndRebuildsAfterAdd(t *testing.T) {
	e := fig1Engine(t)
	e.Build()
	first := e.KeywordIndex()
	e.Build()
	if e.KeywordIndex() != first {
		t.Fatal("Build should be idempotent")
	}
	e.AddTriple(rdf.NewTriple(
		rdf.NewIRI(rdf.ExampleNS+"pub9"),
		rdf.NewIRI(rdf.RDFType),
		rdf.NewIRI(rdf.ExampleNS+"Publication")))
	e.Build()
	if e.KeywordIndex() == first {
		t.Fatal("Build should refresh indexes after new data")
	}
}

func TestLoadNTriples(t *testing.T) {
	e := New(Config{})
	doc := "<http://x/s> <" + rdf.RDFType + "> <http://x/C> .\n"
	n, err := e.LoadNTriples(strings.NewReader(doc))
	if err != nil || n != 1 {
		t.Fatalf("LoadNTriples: n=%d err=%v", n, err)
	}
	if _, err := e.LoadNTriples(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("malformed N-Triples should error")
	}
}

func TestDescribeIsHumanReadable(t *testing.T) {
	e := fig1Engine(t)
	cands, _, err := e.Search([]string{"2006", "cimiano", "aifb"})
	if err != nil {
		t.Fatal(err)
	}
	d := cands[0].Describe()
	if !strings.Contains(d, "Publication") || !strings.Contains(d, "2006") {
		t.Errorf("Describe() = %q", d)
	}
}

// tripleIRI is a test helper building an IRI-only triple in a scratch
// namespace.
func tripleIRI(s, p, o string) rdf.Triple {
	const ns = "http://t/"
	return rdf.NewTriple(rdf.NewIRI(ns+s), rdf.NewIRI(ns+p), rdf.NewIRI(ns+o))
}

// TestConcurrentSearches verifies the engine is safe for concurrent
// read-only use after Build: parallel searches must all succeed and agree
// with the sequential result.
func TestConcurrentSearches(t *testing.T) {
	e := New(Config{K: 5})
	e.AddTriples(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 500, Seed: 2}))
	e.Build()

	queries := [][]string{
		{"thanh tran", "publication"},
		{"philipp cimiano", "aifb"},
		{"author", "institute"},
		{"exploration candidates"},
		{"haofen wang", "journal"},
	}
	want := make([]string, len(queries))
	for i, kws := range queries {
		cands, _, err := e.Search(kws)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cands[0].Query.String()
	}

	const workers = 8
	errs := make(chan error, workers*len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, kws := range queries {
				cands, _, err := e.Search(kws)
				if err != nil {
					errs <- err
					continue
				}
				if got := cands[0].Query.String(); got != want[i] {
					errs <- fmt.Errorf("query %d: got %s, want %s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExplainThroughEngine exercises the facade's Explain.
func TestExplainThroughEngine(t *testing.T) {
	e := fig1Engine(t)
	cands, _, err := e.Search([]string{"2006", "cimiano", "aifb"})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty plan")
	}
}
