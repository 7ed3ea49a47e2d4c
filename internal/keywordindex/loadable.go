package keywordindex

import (
	"sort"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/snapfmt"
	"repro/internal/store"
	"repro/internal/summary"
)

// refRec is the fixed on-disk record for one index reference. The
// owner-class list lives in the class arena, the label text in the
// label arena; both are decoded on the fly from mapped regions, so the
// (typically dominant) reference table needs no materialization at
// load — a beyond-RAM shard pages references in as lookups touch them.
type refRec struct {
	ClassOff   uint64 // start in the class arena, in IDs
	LabelOff   uint64 // start in the label arena, in bytes
	Value      uint32
	Pred       uint32
	Class      uint32
	Kind       uint32
	ClassLen   uint32 // owner classes count
	LabelLen   uint32 // analyzed term count of the label
	LabelBytes uint32 // label text length
	_          uint32
}

// termEntry is the fixed on-disk record for one vocabulary term: its
// string (in the term arena), document frequency, and postings run.
type termEntry struct {
	Off     uint64 // start in the term arena
	PostOff uint64 // start in the postings arena, in postings
	Len     uint32 // term byte length
	DF      uint32
	PostLen uint32
	_       uint32
}

// kwixMetaRec is the fixed snapshot header of a keyword index.
type kwixMetaRec struct {
	NumRefs       int64
	NumTerms      int64
	PostingsTotal int64
	ValueRefs     int64
	ClassRefs     int64
	AttrRefs      int64
	RelRefs       int64
	TreeNodes     int64
	TreeChildren  int64
}

var (
	_ = [unsafe.Sizeof(refRec{})]byte{} == [48]byte{}
	_ = [unsafe.Sizeof(termEntry{})]byte{} == [32]byte{}
	_ = [unsafe.Sizeof(kwixMetaRec{})]byte{} == [72]byte{}
	_ = [unsafe.Sizeof(posting{})]byte{} == [4]byte{}
)

// loadedIndex is the snapshot-backed half of an Index: reference
// records, arenas, the sorted vocabulary with postings runs, and the
// flattened BK-tree, all views into mapped snapshot regions. It
// replaces the refs slice, postings/df maps, and pointer tree of a
// built index with identical lookup behaviour.
type loadedIndex struct {
	refRecs    []refRec
	classArena []store.ID
	labelArena []byte
	termRecs   []termEntry
	vocab      []string // vocab[i] aliases the term arena
	postArena  []posting
	flat       analysis.FlatBK
}

// findTerm locates a vocabulary term by binary search over the sorted
// term table.
func (li *loadedIndex) findTerm(term string) (int, bool) {
	i := sort.SearchStrings(li.vocab, term)
	if i < len(li.vocab) && li.vocab[i] == term {
		return i, true
	}
	return 0, false
}

// postingsFor returns the postings list of a term (nil if absent) —
// map access on a built index, binary search + arena run when loaded.
func (ix *Index) postingsFor(term string) []posting {
	if ix.loaded == nil {
		return ix.postings[term]
	}
	i, ok := ix.loaded.findTerm(term)
	if !ok {
		return nil
	}
	e := &ix.loaded.termRecs[i]
	return ix.loaded.postArena[e.PostOff : e.PostOff+uint64(e.PostLen)]
}

// docFreq returns the document frequency of a term.
func (ix *Index) docFreq(term string) int {
	if ix.loaded == nil {
		return ix.df[term]
	}
	if i, ok := ix.loaded.findTerm(term); ok {
		return int(ix.loaded.termRecs[i].DF)
	}
	return 0
}

// fuzzySearch probes the BK-tree (pointer tree when built, flattened
// arrays when loaded) for terms within edit distance d.
func (ix *Index) fuzzySearch(tok string, d int) []analysis.FuzzyMatch {
	if ix.loaded == nil {
		return ix.tree.Search(tok, d)
	}
	return ix.loaded.flat.Search(tok, d)
}

// numRefs returns the reference count.
func (ix *Index) numRefs() int {
	if ix.loaded == nil {
		return len(ix.refs)
	}
	return len(ix.loaded.refRecs)
}

// refMatch returns the match template of a reference. The Classes
// slice aliases the index (the mapped class arena when loaded) and is
// capped at its length, so an append by a caller copies instead of
// overwriting the next reference's classes.
func (ix *Index) refMatch(ref int32) summary.Match {
	if ix.loaded == nil {
		m := ix.refs[ref].match
		m.Classes = m.Classes[:len(m.Classes):len(m.Classes)]
		return m
	}
	r := &ix.loaded.refRecs[ref]
	m := summary.Match{
		Kind:  summary.MatchKind(r.Kind),
		Value: store.ID(r.Value),
		Pred:  store.ID(r.Pred),
		Class: store.ID(r.Class),
	}
	if r.ClassLen > 0 {
		end := r.ClassOff + uint64(r.ClassLen)
		m.Classes = ix.loaded.classArena[r.ClassOff:end:end]
	}
	return m
}

// refLabel returns the label text and analyzed term count of a
// reference. The text aliases the mapped label arena when loaded.
func (ix *Index) refLabel(ref int32) (string, int) {
	if ix.loaded == nil {
		ri := &ix.refs[ref]
		return ri.labelText, ri.labelLen
	}
	r := &ix.loaded.refRecs[ref]
	return snapfmt.String(ix.loaded.labelArena[r.LabelOff : r.LabelOff+uint64(r.LabelBytes)]), int(r.LabelLen)
}
