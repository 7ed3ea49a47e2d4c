package keywordindex

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/summary"
)

// This file is the distributed face of the keyword index: the scatter
// half (LookupRaw) runs on every shard of a partitioned deployment, the
// gather half (MergeRaw) runs on the coordinator, and together they
// reproduce LookupOpts' result exactly. LookupOpts is the ID-keyed
// single-index path (lookup.go); both draw their per-token hits from
// tokenHits and their score and order from matchScore, labelDF and
// rankBefore, and a differential test pins LookupOpts to the
// single-part merge MergeRaw(LookupRaw(...)).
//
// Why the raw contributions merge losslessly: every matching channel is
// a property of a reference's own label — exact (the label contains the
// token), semantic (a label term equals a thesaurus expansion of the
// token), fuzzy (a label term lies within edit distance of the token) —
// and labels are shard-invariant (value labels are the literal's lexical
// form; class and predicate labels come from schema triples, which the
// shard builder replicates to every shard). A reference that scores a
// (token, channel, score) hit on any shard therefore scores the identical
// hit on every shard that contains it, and the per-token max-merge is
// exact. The only global decision is the exact-first back-off: imprecise
// channels engage only for tokens *no* shard matches exactly, which
// MergeRaw decides by OR-ing the per-shard HasExact flags.

// RefKey identifies one index reference independently of any shard's
// dictionary: references are keyed by the terms behind them, not by
// dictionary IDs, so contributions from shards with different interning
// orders merge correctly. The populated fields depend on Kind exactly as
// in summary.Match.
type RefKey struct {
	Kind  summary.MatchKind
	Value rdf.Term // MatchValue only: the literal
	Pred  rdf.Term // MatchValue, MatchAttrEdge, MatchRelEdge
	Class rdf.Term // MatchClass only
}

// RefData carries the shard-invariant payload of a reference that the
// coordinator needs for scoring and ranking: the label text (analyzed
// lazily, only for references that match every token, for the
// IDF-flavored tie-break against the global document-frequency table)
// and the label length (for the coverage normalization), plus the
// shard-local owner classes, which the coordinator unions across shards.
type RefData struct {
	LabelText string
	LabelLen  int
	Classes   []rdf.Term
}

// TokenHits holds one token's per-channel contributions: reference →
// best score. HasExact reports whether this shard's vocabulary matched
// the token exactly (the input to the global back-off decision).
type TokenHits struct {
	HasExact bool
	Exact    map[RefKey]float64
	Semantic map[RefKey]float64
	Fuzzy    map[RefKey]float64
}

// RawLookup is one shard's unmerged answer for one keyword.
type RawLookup struct {
	// NumTokens is the analyzed token count (identical on every shard —
	// the analyzer is deterministic). 0 means the keyword dissolved into
	// stopwords.
	NumTokens int
	// Hits holds the per-token channel contributions.
	Hits []TokenHits
	// Refs describes every reference that appears in Hits.
	Refs map[RefKey]*RefData
}

// refKeyOf renders a reference's dictionary-independent key.
func (ix *Index) refKeyOf(ref int32) RefKey {
	st := ix.g.Store()
	m := ix.refMatch(ref)
	k := RefKey{Kind: m.Kind}
	switch m.Kind {
	case summary.MatchClass:
		k.Class = st.Term(m.Class)
	case summary.MatchValue:
		k.Value = st.Term(m.Value)
		k.Pred = st.Term(m.Pred)
	default: // MatchAttrEdge, MatchRelEdge
		k.Pred = st.Term(m.Pred)
	}
	return k
}

// refDataOf renders a reference's merge payload.
func (ix *Index) refDataOf(ref int32) *RefData {
	st := ix.g.Store()
	m := ix.refMatch(ref)
	text, llen := ix.refLabel(ref)
	d := &RefData{LabelText: text, LabelLen: llen}
	if m.Classes != nil {
		d.Classes = make([]rdf.Term, len(m.Classes))
		for i, c := range m.Classes {
			d.Classes[i] = st.Term(c)
		}
	}
	return d
}

// LookupRaw computes this index's unmerged contributions for one keyword:
// the same per-token hits as LookupOpts (tokenHits), but with the three
// match channels kept separate and references identified by term, so a
// coordinator can merge contributions from several shards (MergeRaw)
// into exactly the result a single global index would produce.
//
// As an optimization a token the local vocabulary matches exactly skips
// the imprecise channels: if any shard has an exact match the merge
// discards imprecise contributions for that token anyway, and if no shard
// does, this shard has none to compute.
func (ix *Index) LookupRaw(keyword string, opt LookupOptions) *RawLookup {
	tokens := analysis.AnalyzeKeyword(keyword)
	raw := &RawLookup{NumTokens: len(tokens), Refs: map[RefKey]*RefData{}}
	if len(tokens) == 0 {
		return raw
	}
	raw.Hits = make([]TokenHits, len(tokens))
	rawWords := analysis.SplitWords(keyword)

	record := func(ch *map[RefKey]float64, ref int32, score float64) {
		k := ix.refKeyOf(ref)
		if *ch == nil {
			*ch = map[RefKey]float64{}
		}
		if score > (*ch)[k] {
			(*ch)[k] = score
		}
		if _, ok := raw.Refs[k]; !ok {
			raw.Refs[k] = ix.refDataOf(ref)
		}
	}

	for i, tok := range tokens {
		h := &raw.Hits[i]
		exact := ix.tokenHits(tok, i, rawWords, opt, func(ref int32, score float64, semantic bool) {
			if semantic {
				record(&h.Semantic, ref, score)
			} else {
				record(&h.Fuzzy, ref, score)
			}
		})
		if len(exact) > 0 {
			h.HasExact = true
			for _, p := range exact {
				record(&h.Exact, p.ref, 1.0)
			}
		}
	}
	return raw
}

// MergeRaw merges per-shard raw lookups of one keyword into the final
// ranked element matches, reproducing LookupOpts' scoring, ranking, and
// truncation exactly. df supplies global document frequencies (term →
// number of references containing it, over the whole corpus) for the
// tie-break, and resolve maps terms into the coordinator's dictionary —
// the ID space the returned matches (and their ranking tie-breaks) live
// in. nil entries in parts are skipped.
func MergeRaw(parts []*RawLookup, opt LookupOptions, df func(term string) int,
	resolve func(rdf.Term) (store.ID, bool)) []summary.Match {

	n := 0
	for _, p := range parts {
		if p != nil {
			n = p.NumTokens
			break
		}
	}
	if n == 0 {
		return nil
	}

	// Merge the per-token score vectors, channel-gated by the global
	// exact-first back-off.
	type mcand struct {
		data *RefData
		tok  []float64
	}
	cands := map[RefKey]*mcand{}
	apply := func(part *RawLookup, ch map[RefKey]float64, i int) {
		for k, score := range ch {
			c, ok := cands[k]
			if !ok {
				c = &mcand{data: part.Refs[k], tok: make([]float64, n)}
				cands[k] = c
			}
			if score > c.tok[i] {
				c.tok[i] = score
			}
		}
	}
	for i := 0; i < n; i++ {
		hasExact := false
		for _, p := range parts {
			if p != nil && i < len(p.Hits) && p.Hits[i].HasExact {
				hasExact = true
				break
			}
		}
		for _, p := range parts {
			if p == nil || i >= len(p.Hits) {
				continue
			}
			if hasExact {
				apply(p, p.Hits[i].Exact, i)
			} else {
				apply(p, p.Hits[i].Semantic, i)
				apply(p, p.Hits[i].Fuzzy, i)
			}
		}
	}

	// Score candidates that matched every token, resolving references
	// into the coordinator's dictionary.
	var out []ranked
	for key, c := range cands {
		prod := 1.0
		ok := true
		for _, s := range c.tok {
			if s == 0 {
				ok = false
				break
			}
			prod *= s
		}
		if !ok {
			continue
		}
		m := summary.Match{Kind: key.Kind, Score: matchScore(prod, n, c.data.LabelLen)}
		resolved := true
		need := func(t rdf.Term) store.ID {
			id, ok := resolve(t)
			if !ok {
				resolved = false
			}
			return id
		}
		switch key.Kind {
		case summary.MatchClass:
			m.Class = need(key.Class)
		case summary.MatchValue:
			m.Value = need(key.Value)
			m.Pred = need(key.Pred)
		default:
			m.Pred = need(key.Pred)
		}
		if key.Kind == summary.MatchValue || key.Kind == summary.MatchAttrEdge {
			m.Classes = mergeClasses(parts, key, resolve)
		}
		if !resolved {
			continue // term absent from the coordinator dictionary: not servable
		}
		out = append(out, ranked{m: m, df: labelDF(c.data.LabelText, df)})
	}

	// Rank over coordinator-dictionary IDs: the same total order a single
	// global index uses.
	return topMatches(out, opt.maxMatches())
}

// mergeClasses unions a reference's owner classes across all shards that
// know it, resolved and sorted in the coordinator's ID space — exactly
// the sorted class set a global index build produces.
func mergeClasses(parts []*RawLookup, key RefKey, resolve func(rdf.Term) (store.ID, bool)) []store.ID {
	set := map[store.ID]bool{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		d, ok := p.Refs[key]
		if !ok {
			continue
		}
		for _, c := range d.Classes {
			if id, ok := resolve(c); ok {
				set[id] = true
			}
		}
	}
	out := make([]store.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DocFreqs exposes the index's per-term document frequencies (term →
// number of references whose label contains the term). The shard builder
// extracts this table from a transient global index so the coordinator
// can rank merged lookups with corpus-wide IDF statistics. The returned
// map is the index's own: treat it as read-only.
func (ix *Index) DocFreqs() map[string]int { return ix.df }
