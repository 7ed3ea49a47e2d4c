package keywordindex

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/store"
	"repro/internal/summary"
)

// This file is the single-index lookup and the pieces it shares with
// the distributed one (distributed.go): the per-token hit generator, the
// match score, the DF tie-break, and the rank order. LookupRaw/MergeRaw
// build their result from the same pieces, so the two paths can differ
// only in how they gather hits, and the differential test pins that.

// tokenHits generates one analyzed token's hits. A token the vocabulary
// holds is an exact match: its posting run comes back, and every ref on
// it scores 1. Otherwise the imprecise channels engage (the exact-first
// back-off) and imprecise is called once per hit: semantic hits through
// the thesaurus on the token's raw word form rawWords[i], then fuzzy
// hits within the edit distance. A ref can be reported more than once;
// consumers keep its best score.
func (ix *Index) tokenHits(tok string, i int, rawWords []string, opt LookupOptions,
	imprecise func(ref int32, score float64, semantic bool)) []posting {
	if exact := ix.postingsFor(tok); len(exact) > 0 {
		return exact
	}
	if !opt.DisableSemantic && ix.th != nil && i < len(rawWords) {
		for _, e := range ix.th.Lookup(rawWords[i]) {
			for _, p := range ix.postingsFor(analysis.Stem(e.Term)) {
				imprecise(p.ref, e.Score, true)
			}
		}
	}
	if d := opt.editDistance(tok); d > 0 {
		for _, fm := range ix.fuzzySearch(tok, d) {
			if fm.Dist == 0 {
				continue // already handled as exact
			}
			decay := 1 - float64(fm.Dist)/float64(maxLen(len(tok), len(fm.Term)))
			score := fuzzyWeight * decay
			if score <= 0 {
				continue
			}
			for _, p := range ix.postingsFor(fm.Term) {
				imprecise(p.ref, score, false)
			}
		}
	}
	return nil
}

// matchScore is the sm of a ref that hit all n tokens: the geometric
// mean of its per-token scores (prod, multiplied in token order) times
// a length normalization that rewards labels the keyword covers fully.
func matchScore(prod float64, n, labelLen int) float64 {
	mean := math.Pow(prod, 1/float64(n))
	norm := math.Sqrt(float64(n) / float64(maxLen(labelLen, n)))
	return mean * norm
}

// labelDF is the ranking tie-break of a label: the sum of df over its
// analyzed terms, duplicates counted. Lower means rarer words.
func labelDF(label string, df func(term string) int) int {
	d := 0
	for _, t := range analysis.Analyze(label) {
		d += df(t)
	}
	return d
}

// ranked is a scored match awaiting the final order.
type ranked struct {
	m  summary.Match
	df int // labelDF of the match's label
}

// rankBefore is the lookup's total order: score descending, then rarity
// (labelDF ascending, the IDF flavor), then the deterministic match
// order over dictionary IDs.
func rankBefore(a, b *ranked) bool {
	if a.m.Score != b.m.Score {
		return a.m.Score > b.m.Score
	}
	if a.df != b.df {
		return a.df < b.df
	}
	return lessMatch(a.m, b.m)
}

// topMatches sorts rs by rankBefore and returns the first max matches.
// The result is never nil: a keyword with tokens but no match yields an
// empty list.
func topMatches(rs []ranked, max int) []summary.Match {
	sort.Slice(rs, func(i, j int) bool { return rankBefore(&rs[i], &rs[j]) })
	if len(rs) > max {
		rs = rs[:max]
	}
	ms := make([]summary.Match, len(rs))
	for i := range rs {
		ms[i] = rs[i].m
	}
	return ms
}

// dfMemo holds each ref's labelDF for the tie-break. It is filled
// lazily, only for refs that reach a lookup's top M, and atomically,
// so concurrent lookups share it. It is exact because an Index never
// changes: ApplyDelta, which moves DFs, returns a new Index with an
// empty memo.
type dfMemo struct {
	once sync.Once
	sums []atomic.Uint32 // labelDF + 1; 0 = not computed yet
}

// refDF returns the labelDF of a ref's label against this index's DFs.
func (ix *Index) refDF(ref int32) int {
	ix.dfs.once.Do(func() { ix.dfs.sums = make([]atomic.Uint32, ix.numRefs()) })
	slot := &ix.dfs.sums[ref]
	if v := slot.Load(); v != 0 {
		return int(v - 1)
	}
	text, _ := ix.refLabel(ref)
	d := labelDF(text, ix.docFreq)
	if d < math.MaxUint32 {
		slot.Store(uint32(d + 1))
	}
	return d
}

// tokenSet is one token's hits during a LookupOpts: an exact posting
// run, or an imprecise ref → best score map.
type tokenSet struct {
	run    []posting
	approx map[int32]float64
	cur    int // forward cursor into run
}

func (t *tokenSet) size() int {
	if t.run != nil {
		return len(t.run)
	}
	return len(t.approx)
}

// scoredRef is a ref that hit every token, with its score.
type scoredRef struct {
	ref   int32
	score float64
}

// LookupOpts maps one user keyword (a word or a quoted phrase) to graph
// elements. A multi-token keyword matches an element only if every token
// matches the element's label. The matching score sm combines the token
// match quality (exact=1, semantic=thesaurus score, fuzzy=edit-distance
// decay) with a length normalization that rewards labels fully covered by
// the keyword — the TF-flavored adjustment the paper suggests for
// multi-term labels (Sec. V).
//
// It works in the index's own ref space, so its cost follows the hits,
// not the postings it renders: exact tokens intersect their sorted
// posting runs, imprecise tokens collect into a small ref → score map,
// and only the refs scoring at or above the M-th best score pay for the
// DF tie-break (memoized per index). The result equals the single-part
// merge MergeRaw(LookupRaw(...)) bit for bit; the differential test
// holds the two together.
func (ix *Index) LookupOpts(keyword string, opt LookupOptions) []summary.Match {
	tokens := analysis.AnalyzeKeyword(keyword)
	n := len(tokens)
	if n == 0 {
		return nil
	}
	rawWords := analysis.SplitWords(keyword)
	sets := make([]tokenSet, n)
	lead := 0 // the token with the fewest hits leads the intersection
	for i, tok := range tokens {
		t := &sets[i]
		t.run = ix.tokenHits(tok, i, rawWords, opt, func(ref int32, score float64, _ bool) {
			if t.approx == nil {
				t.approx = map[int32]float64{}
			}
			if score > t.approx[ref] {
				t.approx[ref] = score
			}
		})
		if t.size() == 0 {
			return []summary.Match{}
		}
		if t.size() < sets[lead].size() {
			lead = i
		}
	}

	// score reports whether ref hit every token and what it scores. An
	// exact lead walks its run in ref order, so the other runs advance
	// by forward cursor; a map lead has no order, so they search whole.
	forward := sets[lead].run != nil
	score := func(ref int32) (float64, bool) {
		prod := 1.0
		for i := range sets {
			t := &sets[i]
			s := 1.0
			if t.run == nil {
				var ok bool
				if s, ok = t.approx[ref]; !ok {
					return 0, false
				}
			} else if i != lead {
				j := t.cur + searchRef(t.run[t.cur:], ref)
				if forward {
					t.cur = j
				}
				if j == len(t.run) || t.run[j].ref != ref {
					return 0, false
				}
			}
			prod *= s
		}
		_, labelLen := ix.refLabel(ref)
		return matchScore(prod, n, labelLen), true
	}

	// Keep every ref scoring at or above the M-th best score seen so far:
	// those and only those can reach the top M once ties are broken.
	m := opt.maxMatches()
	var (
		top   []float64 // best scores so far, ascending; top[0] is the bar once full
		kept  []scoredRef
		prune = 2 * m
	)
	admit := func(ref int32) {
		sc, ok := score(ref)
		if !ok {
			return
		}
		if len(top) == m {
			if sc < top[0] {
				return
			}
			if sc > top[0] {
				top = insertScore(top[:copy(top, top[1:])], sc)
			}
		} else {
			top = insertScore(top, sc)
		}
		kept = append(kept, scoredRef{ref, sc})
		if len(kept) > prune && len(top) == m {
			kept = dropBelow(kept, top[0])
			prune = max(2*len(kept), 2*m)
		}
	}
	if run := sets[lead].run; run != nil {
		for _, p := range run {
			admit(p.ref)
		}
	} else {
		for ref := range sets[lead].approx {
			admit(ref)
		}
	}
	if len(top) == m {
		kept = dropBelow(kept, top[0])
	}

	rs := make([]ranked, len(kept))
	for i, k := range kept {
		rs[i] = ranked{m: ix.lookupMatch(k.ref, k.score), df: ix.refDF(k.ref)}
	}
	return topMatches(rs, m)
}

// insertScore inserts sc into the ascending slice top.
func insertScore(top []float64, sc float64) []float64 {
	i := sort.SearchFloat64s(top, sc)
	top = append(top, 0)
	copy(top[i+1:], top[i:])
	top[i] = sc
	return top
}

// dropBelow removes, in place, every ref scoring below bar.
func dropBelow(rs []scoredRef, bar float64) []scoredRef {
	out := rs[:0]
	for _, r := range rs {
		if r.score >= bar {
			out = append(out, r)
		}
	}
	return out
}

// searchRef returns the first position in run whose ref is ≥ ref.
func searchRef(run []posting, ref int32) int {
	lo, hi := 0, len(run)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if run[h].ref < ref {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// lookupMatch renders a ref as a scored match, with its owner classes
// as MergeRaw renders them: a list, possibly empty, for values and
// attribute edges, nil for classes and relation edges. The list aliases
// the index (cap == len, so an append copies).
func (ix *Index) lookupMatch(ref int32, score float64) summary.Match {
	m := ix.refMatch(ref)
	m.Score = score
	switch m.Kind {
	case summary.MatchValue, summary.MatchAttrEdge:
		if m.Classes == nil {
			m.Classes = []store.ID{}
		}
	default:
		m.Classes = nil
	}
	return m
}
