package shard

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/summary"
)

// Builder assembles a Cluster: it ingests the full triple stream once
// (the same off-line position a single engine's Build occupies), derives
// the coordinator's global artifacts from it, routes every triple to its
// home shard, and builds each shard's local indexes. After Build the full
// stream and the transient global graph are released; only the shards and
// the coordinator's catalog remain.
type Builder struct {
	shards  int
	cfg     engine.Config
	triples []rdf.Triple
}

// NewBuilder returns a builder for a cluster of n shards (n < 1 is
// treated as 1) serving the given engine configuration.
func NewBuilder(n int, cfg engine.Config) *Builder {
	if n < 1 {
		n = 1
	}
	return &Builder{shards: n, cfg: cfg.WithDefaults()}
}

// AddTriples appends triples to the stream.
func (b *Builder) AddTriples(ts []rdf.Triple) { b.triples = append(b.triples, ts...) }

// Build partitions the stream and returns the ready-to-query cluster.
//
// The global pass interns terms in input order, so the coordinator's
// dictionary assigns exactly the IDs a single engine fed the same stream
// would — the ID space in which merged keyword matches are tie-broken
// and execute rows are decoded, making those bit-compatible with the
// single-engine ones.
func (b *Builder) Build() *Cluster {
	n := b.shards

	// 1. Global artifacts: dictionary, classified graph, summary graph,
	// and the lexicon statistics extracted from a transient global keyword
	// index. The graph and index are released at the end of this function;
	// the summary (class-level, small) and dictionary stay.
	gst := store.New()
	enc := make([]store.IDTriple, len(b.triples))
	for i, t := range b.triples {
		enc[i] = gst.Add(t)
	}
	gst.Build()
	gg := graph.Build(gst)
	gsum := summary.Build(gg)
	th := b.cfg.Thesaurus
	if b.cfg.DisableSemantic {
		th = nil
	}
	gkwix := keywordindex.Build(gg, th)
	df := gkwix.DocFreqs()
	numeric := gkwix.NumericAttrMatches()

	// 2. The replication rule. A shard must classify every triple it owns
	// exactly as the global build does, and that classification depends
	// only on (a) class membership of entities (rdf:type), (b) the class
	// hierarchy (rdfs:subClassOf), and (c) the display labels of classes
	// and predicates (rdfs:label with a schema subject), which the keyword
	// index indexes. These are replicated to every shard; everything else
	// lives only on its subject's home shard.
	preds := map[store.ID]bool{}
	for _, p := range gst.Range(store.Wildcard, store.Wildcard, store.Wildcard).P {
		preds[p] = true
	}
	labelID, _ := gst.Lookup(rdf.NewIRI(rdf.RDFSLabel))
	replicated := func(t store.IDTriple) bool {
		switch {
		case gg.TypeID() != 0 && t.P == gg.TypeID():
			return true
		case gg.SubclassID() != 0 && t.P == gg.SubclassID():
			return true
		case labelID != 0 && t.P == labelID:
			return gg.Kind(t.S) == graph.CVertex || preds[t.S]
		}
		return false
	}

	// 3. Route the stream. Each shard gets two stores: `data` holds
	// exactly the owned triples (disjoint partitions — the bind-join and
	// selectivity counts depend on that), while the index store adds the
	// replicated schema so graph classification and keyword indexing are
	// locally exact.
	dataStores := make([]*store.Store, n)
	idxStores := make([]*store.Store, n)
	for i := range dataStores {
		dataStores[i] = store.New()
		idxStores[i] = store.New()
	}
	for i, t := range b.triples {
		home := homeShard(t.S, n)
		dataStores[home].Add(t)
		if replicated(enc[i]) {
			for s := range idxStores {
				idxStores[s].Add(t)
			}
		} else {
			idxStores[home].Add(t)
		}
	}

	// 4. Per-shard builds and dictionary translation tables.
	shards := make([]*Shard, n)
	for i := range shards {
		ds, is := dataStores[i], idxStores[i]
		ds.Build()
		is.Build()
		g := graph.Build(is)
		kw := keywordindex.Build(g, th)
		l2g := make([]store.ID, ds.NumTerms()+1)
		g2l := make([]store.ID, gst.NumTerms()+1)
		for l := store.ID(1); int(l) <= ds.NumTerms(); l++ {
			if gid, ok := gst.Lookup(ds.Term(l)); ok {
				l2g[l] = gid
				g2l[gid] = l
			}
		}
		shards[i] = &Shard{id: i, data: ds, g: g, kwix: kw, local2global: l2g, global2local: g2l}
	}

	// 5. Slim the coordinator: swap the summary's backing graph for a
	// dictionary-only view, releasing the global triples and adjacency.
	total := gst.Len()
	dict := gst.DictionaryView()
	gsum.ReplaceData(graph.Build(dict))

	return &Cluster{
		cfg:          b.cfg,
		shards:       shards,
		dict:         dict,
		sum:          gsum,
		df:           df,
		numeric:      numeric,
		explorer:     core.NewExplorer(),
		totalTriples: total,
	}
}
