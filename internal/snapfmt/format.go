// Package snapfmt implements the low-level container format for
// searchwebdb snapshots (.swdb files): a single-file, versioned,
// section-based binary layout designed so that loading is mmap +
// pointer-fixup with zero parse cost.
//
// File layout:
//
//	header (64 B)   magic, format version, native byte-order marker
//	section 0       payload, 64-byte aligned
//	section 1       payload, 64-byte aligned
//	...
//	directory       32 B per section: kind, group, offset, length, CRC32
//	footer (40 B)   directory offset/count/CRC, file size, tail magic
//
// Section payloads are raw in-memory representations (SoA columns,
// string arenas, fixed-size record arrays) written in native byte
// order; the header carries a byte-order marker written natively so a
// reader on a mismatched architecture refuses the file instead of
// misreading it. The footer sits at EOF, so a truncated file is
// detected before any section is trusted; every section carries a
// CRC32 (Castagnoli) of its payload, so single-bit corruption anywhere
// is detected and reported with the section's name.
//
// snapfmt knows nothing about what the sections mean — the higher
// layers (store, graph, summary, keywordindex, snapshot) define the
// payloads. It only guarantees integrity, alignment, and addressing.
package snapfmt

// Magic opens every snapshot file; Version is the current format
// version. Readers refuse any other magic or version outright.
const (
	Magic     = "SWDBSNP1"
	TailMagic = "SWDBEND1"
	Version   = 1
)

const (
	headerSize   = 64
	dirEntrySize = 32
	footerSize   = 40

	// Align is the alignment of every section payload within the file.
	// 64 covers the strictest natural alignment of any payload type
	// (8-byte words) with room to spare, matches cache-line size, and
	// keeps mapped columns page-friendly.
	Align = 64

	// byteOrderMark is written to the header through the same
	// native-endian path the payloads use. A reader that parses the
	// little-endian header fields but sees this marker scrambled is
	// running on an architecture with a different byte order than the
	// writer and must refuse the file.
	byteOrderMark uint32 = 0x0A0B0C0D
)

// Section kinds. The (kind, group) pair addresses a section within a
// file; kinds are defined centrally here so every layer draws from one
// namespace and observability can name any section. Groups distinguish
// multiple instances of the same component in one file; an engine
// snapshot uses one group.
const (
	SecMeta uint32 = 1 // snapshot-level JSON metadata

	// Store: dictionary + triple columns.
	SecDictRecs     uint32 = 2 // fixed 24 B term records
	SecDictArena    uint32 = 3 // concatenated term strings
	SecDictHash     uint32 = 4 // open-addressing term -> ID table
	SecColsSPO      uint32 = 5 // S||P||O columns, SPO order
	SecColsPOS      uint32 = 6 // S||P||O columns, POS order
	SecColsOSP      uint32 = 7 // S||P||O columns, OSP order
	SecStoreOffsets uint32 = 8 // subj||pred||obj offset tables
	SecStoreMeta    uint32 = 9 // term/triple counts

	// Data graph: vertex classification (adjacency is rebuilt lazily).
	SecGraphKinds uint32 = 10 // one byte per vertex
	SecGraphMeta  uint32 = 11 // type/subclass IDs + stats

	// Summary graph.
	SecSumElems uint32 = 12 // fixed 24 B element records
	SecSumNbrs  uint32 = 13 // CSR neighbour lists
	SecSumMeta  uint32 = 14 // counts, thing element, totals

	// Keyword index.
	SecKwixRefRecs    uint32 = 15 // fixed 56 B ref records
	SecKwixClassArena uint32 = 16 // ref class-ID lists
	SecKwixLabelArena uint32 = 17 // ref label strings
	SecKwixTermRecs   uint32 = 18 // sorted vocabulary records
	SecKwixTermArena  uint32 = 19 // vocabulary strings
	SecKwixPostings   uint32 = 20 // concatenated postings lists
	SecKwixTree       uint32 = 21 // flattened BK-tree
	SecKwixMeta       uint32 = 22 // counts + stats

	// Numeric-attribute matches (standalone match list).
	SecNumericRecs  uint32 = 23
	SecNumericArena uint32 = 24
)

var kindNames = map[uint32]string{
	SecMeta:           "meta",
	SecDictRecs:       "dict-records",
	SecDictArena:      "dict-arena",
	SecDictHash:       "dict-hash",
	SecColsSPO:        "cols-spo",
	SecColsPOS:        "cols-pos",
	SecColsOSP:        "cols-osp",
	SecStoreOffsets:   "store-offsets",
	SecStoreMeta:      "store-meta",
	SecGraphKinds:     "graph-kinds",
	SecGraphMeta:      "graph-meta",
	SecSumElems:       "summary-elems",
	SecSumNbrs:        "summary-nbrs",
	SecSumMeta:        "summary-meta",
	SecKwixRefRecs:    "kwix-ref-records",
	SecKwixClassArena: "kwix-class-arena",
	SecKwixLabelArena: "kwix-label-arena",
	SecKwixTermRecs:   "kwix-term-records",
	SecKwixTermArena:  "kwix-term-arena",
	SecKwixPostings:   "kwix-postings",
	SecKwixTree:       "kwix-bktree",
	SecKwixMeta:       "kwix-meta",
	SecNumericRecs:    "numeric-records",
	SecNumericArena:   "numeric-arena",
}

// KindName returns the human-readable name of a section kind, for
// error messages and observability.
func KindName(kind uint32) string {
	if n, ok := kindNames[kind]; ok {
		return n
	}
	return "unknown"
}
