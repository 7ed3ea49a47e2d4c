// Package keywordindex implements the paper's keyword index (Sec. IV-A):
// an inverted index over the labels of C-vertices, V-vertices, and edges
// of the data graph (E-vertices are deliberately not indexed — users refer
// to entities by attribute values, not URIs). It is "in fact an IR engine":
// labels are lexically analyzed (tokenized, stopword-filtered, stemmed),
// and lookups perform imprecise matching that combines
//
//   - exact (stemmed) term matches,
//   - semantically similar terms from the thesaurus (WordNet stand-in), and
//   - syntactically similar terms via Levenshtein distance over a BK-tree,
//
// returning the element descriptions of Sec. IV-A — [V-vertex, A-edge,
// (C-vertex1..n)] for values, [A-edge, (C-vertex1..n)] for attribute
// predicates — as summary.Match values with matching scores sm ∈ (0,1].
//
// There are two lookup paths. LookupOpts (lookup.go) serves one index
// in its own ref space, at a cost that follows the hits. LookupRaw and
// MergeRaw (distributed.go) serve a sharded deployment, keyed by term.
// They share the hit generator, the score and the order, and a
// differential test keeps their answers bit-identical.
package keywordindex

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

// Match-quality weights. Exact term matches score 1; semantic matches are
// scaled by the thesaurus relation score; fuzzy matches decay with edit
// distance and are further discounted to rank below semantic matches.
const (
	fuzzyWeight = 0.85
)

// Stats describes the index composition (reported by Fig. 6b).
type Stats struct {
	// Refs is the number of element references (index "documents").
	Refs int
	// Terms is the vocabulary size (distinct stemmed terms).
	Terms int
	// Postings is the total number of term→element postings.
	Postings int
	// ValueRefs counts references to V-vertices, the dominant component
	// for DBLP-shaped data.
	ValueRefs int
	// ClassRefs, AttrRefs, RelRefs count the schema-level references.
	ClassRefs, AttrRefs, RelRefs int
}

// EstimatedBytes approximates the in-memory footprint of the index
// structures (used as the "index size" of Fig. 6b).
func (s Stats) EstimatedBytes() int {
	const refBytes, postingBytes, termBytes = 48, 8, 40
	return s.Refs*refBytes + s.Postings*postingBytes + s.Terms*termBytes
}

type posting struct {
	ref int32
}

type refInfo struct {
	match     summary.Match // template; Score is filled per lookup
	labelLen  int           // number of terms in the label
	labelText string        // original label (for display/debugging)
}

// Index is the keyword-element map. Build it once off-line; lookups are
// read-only and safe for concurrent use.
type Index struct {
	g            *graph.Graph
	th           *thesaurus.Thesaurus
	refs         []refInfo
	postings     map[string][]posting
	df           map[string]int // document frequency per term
	tree         *analysis.BKTree
	numericAttrs []summary.Match
	stats        Stats

	// loaded, when non-nil, is the snapshot-backed form: refs,
	// postings, df, and tree are nil and every access goes through the
	// accessor seam (see loadable.go) against mapped regions.
	loaded *loadedIndex

	// dfs memoizes each ref's DF tie-break for LookupOpts (lookup.go).
	dfs dfMemo
}

// Build constructs the keyword index for a data graph. th may be nil to
// disable semantic expansion.
func Build(g *graph.Graph, th *thesaurus.Thesaurus) *Index {
	ix := &Index{
		g:        g,
		th:       th,
		postings: make(map[string][]posting),
		df:       make(map[string]int),
		tree:     &analysis.BKTree{},
	}
	ix.indexClasses()
	ix.indexPredicates()
	ix.indexValues()
	ix.stats.Refs = len(ix.refs)
	ix.stats.Terms = len(ix.postings)
	for _, ps := range ix.postings {
		ix.stats.Postings += len(ps)
	}
	return ix
}

// addRef registers an element reference under every term of its label.
func (ix *Index) addRef(m summary.Match, label string) {
	terms := analysis.Analyze(label)
	if len(terms) == 0 {
		return
	}
	ref := int32(len(ix.refs))
	ix.refs = append(ix.refs, refInfo{match: m, labelLen: len(terms), labelText: label})
	seen := map[string]bool{}
	for _, t := range terms {
		if seen[t] {
			continue // index distinct terms once per label
		}
		seen[t] = true
		ix.postings[t] = append(ix.postings[t], posting{ref: ref})
		ix.df[t]++
		ix.tree.Add(t)
	}
}

func (ix *Index) indexClasses() {
	ix.g.ForEachVertex(func(id store.ID, kind graph.VertexKind) {
		if kind != graph.CVertex {
			return
		}
		ix.addRef(summary.Match{Kind: summary.MatchClass, Class: id}, ix.g.Label(id))
		ix.stats.ClassRefs++
	})
}

// indexPredicates indexes R-edge and A-edge labels. For A-edges the
// classes of the owning entities are collected so the augmentation step
// can attach the edge at the right class vertices (Sec. IV-A's
// [A-edge, (C-vertex1..n)] structure), and all-numeric attributes are
// remembered for the filter-operator extension.
func (ix *Index) indexPredicates() {
	type predAgg struct {
		kind    graph.EdgeKind
		classes map[store.ID]bool
		numeric bool
	}
	preds := map[store.ID]*predAgg{}
	st := ix.g.Store()
	full := st.Range(store.Wildcard, store.Wildcard, store.Wildcard)
	for i, p := range full.P {
		var kind graph.EdgeKind
		switch {
		case ix.g.TypeID() != 0 && p == ix.g.TypeID():
			continue // type edges are structural, not keyword targets
		case ix.g.SubclassID() != 0 && p == ix.g.SubclassID():
			continue
		case ix.g.Kind(full.O[i]) == graph.VVertex:
			kind = graph.AEdge
		default:
			kind = graph.REdge
		}
		pa, ok := preds[p]
		if !ok {
			pa = &predAgg{kind: kind, classes: map[store.ID]bool{}, numeric: true}
			preds[p] = pa
		}
		if kind == graph.AEdge {
			for _, c := range ix.g.Classes(full.S[i]) {
				pa.classes[c] = true
			}
			if pa.numeric && !isNumeric(st.Term(full.O[i]).Value) {
				pa.numeric = false
			}
		}
	}
	// Deterministic order for reproducible ref IDs.
	ids := make([]store.ID, 0, len(preds))
	for p := range preds {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, p := range ids {
		pa := preds[p]
		if pa.kind == graph.AEdge {
			m := summary.Match{
				Kind:    summary.MatchAttrEdge,
				Pred:    p,
				Classes: sortedIDs(pa.classes),
			}
			ix.addRef(m, ix.g.Label(p))
			ix.stats.AttrRefs++
			if pa.numeric {
				m.Score = 1
				ix.numericAttrs = append(ix.numericAttrs, m)
			}
		} else {
			ix.addRef(summary.Match{Kind: summary.MatchRelEdge, Pred: p}, ix.g.Label(p))
			ix.stats.RelRefs++
		}
	}
}

// isNumeric reports whether a lexical form parses as a plain number.
func isNumeric(s string) bool {
	digits := 0
	dot := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' && !dot && i > 0:
			dot = true
		case (c == '-' || c == '+') && i == 0:
		default:
			return false
		}
	}
	return digits > 0
}

// NumericAttrMatches returns attribute-edge matches for every predicate
// whose values are all numeric — the candidate targets of a filter
// keyword such as "before 2005" (the Sec. IX filter extension).
func (ix *Index) NumericAttrMatches() []summary.Match {
	out := make([]summary.Match, len(ix.numericAttrs))
	copy(out, ix.numericAttrs)
	return out
}

// indexValues indexes every V-vertex once per attribute predicate that
// reaches it, together with the classes of the owning entities.
func (ix *Index) indexValues() {
	type vpKey struct {
		v, p store.ID
	}
	owners := map[vpKey]map[store.ID]bool{}
	var keys []vpKey
	st := ix.g.Store()
	full := st.Range(store.Wildcard, store.Wildcard, store.Wildcard)
	for i, o := range full.O {
		if ix.g.Kind(o) != graph.VVertex {
			continue
		}
		k := vpKey{o, full.P[i]}
		set, ok := owners[k]
		if !ok {
			set = map[store.ID]bool{}
			owners[k] = set
			keys = append(keys, k)
		}
		for _, c := range ix.g.Classes(full.S[i]) {
			set[c] = true
		}
	}
	for _, k := range keys {
		ix.addRef(summary.Match{
			Kind:    summary.MatchValue,
			Value:   k.v,
			Pred:    k.p,
			Classes: sortedIDs(owners[k]),
		}, ix.g.Label(k.v))
		ix.stats.ValueRefs++
	}
}

func sortedIDs(set map[store.ID]bool) []store.ID {
	out := make([]store.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the index composition.
func (ix *Index) Stats() Stats { return ix.stats }

// LookupOptions tune a keyword lookup.
type LookupOptions struct {
	// MaxMatches caps the number of element matches returned (default 8).
	MaxMatches int
	// MaxEditDistance bounds fuzzy matching (default: 1 for terms of
	// length ≤ 5, else 2). Fuzzy matching never applies to pure-digit
	// tokens ("2006" must not match "2007").
	MaxEditDistance int
	// DisableFuzzy turns off Levenshtein matching.
	DisableFuzzy bool
	// DisableSemantic turns off thesaurus expansion.
	DisableSemantic bool
}

func (o LookupOptions) maxMatches() int {
	if o.MaxMatches <= 0 {
		return 8
	}
	return o.MaxMatches
}

func (o LookupOptions) editDistance(term string) int {
	if o.DisableFuzzy || isDigits(term) {
		return 0
	}
	if o.MaxEditDistance > 0 {
		return o.MaxEditDistance
	}
	if len(term) <= 5 {
		return 1
	}
	return 2
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// Lookup maps one user keyword to graph elements with default options.
func (ix *Index) Lookup(keyword string) []summary.Match {
	return ix.LookupOpts(keyword, LookupOptions{})
}

func lessMatch(a, b summary.Match) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Pred != b.Pred {
		return a.Pred < b.Pred
	}
	return a.Value < b.Value
}

func maxLen(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LookupAll maps every keyword of a query, returning one match set per
// keyword in input order (the K_1..K_m of Algorithm 1).
func (ix *Index) LookupAll(keywords []string, opt LookupOptions) [][]summary.Match {
	out := make([][]summary.Match, len(keywords))
	for i, kw := range keywords {
		out[i] = ix.LookupOpts(kw, opt)
	}
	return out
}
