// Package shard is the benchmark's comparison cluster: the pipeline run
// over N subject-partitioned shards behind one in-process coordinator.
// It is not served — serverd, buildindex and internal/server use the
// engine alone. It stays for two readers: the benchmark's shard.* rows,
// which time it against the engine on identical requests, and the
// equivalence tests, which prove it answers exactly as the engine does.
//
// Builder splits the triple stream by subject hash: every triple
// (s, p, o) lives on shard hash(s) mod N, except class-membership and
// schema triples (rdf:type, rdfs:subClassOf, and rdfs:label of classes
// and predicates), which are replicated to every shard so each shard can
// classify its own triples' endpoints exactly as a global build would.
// Each shard builds its own store, data graph, and keyword index; the
// coordinator keeps the global summary graph (small: class-level), a
// dictionary-only catalog in the single-engine ID space, and the global
// lexicon statistics — but no triples.
//
//   - Search scatters the keyword-to-element mapping across all shards
//     concurrently (keywordindex.LookupRaw), merges the contributions at
//     the coordinator (keywordindex.MergeRaw), and explores the global
//     summary graph there — from the merged matches on, the code path is
//     engine.ComputeCandidates, shared verbatim with the single engine.
//   - Execute is a distributed bind-join: the greedy join order is chosen
//     at the coordinator from scatter-summed selectivities, and each join
//     step ships the current bindings to every shard, which extends them
//     against its local indexes; extensions are union-merged. Limits are
//     pushed into the final join step when sound, and context
//     cancellation is threaded into every shard call.
//
// See DESIGN.md, "The comparison cluster", for the partitioning
// invariant and the equivalence argument.
package shard

import (
	"hash/fnv"
	"io"

	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Shard is one data partition with its locally built indexes. Fields are
// immutable after Builder.Build; all uses are read-only and safe for
// concurrent access.
type Shard struct {
	id int

	// data holds exactly the shard's owned triples (subject-partitioned;
	// disjoint across shards, union = the full dataset). The distributed
	// bind-join and the scatter-summed selectivity counts run against it.
	data *store.Store

	// g classifies the owned triples plus the replicated schema triples —
	// the enrichment that makes local classification (entity classes,
	// vertex kinds, schema labels) agree with a global build. The keyword
	// index derives from it.
	g    *graph.Graph
	kwix *keywordindex.Index

	// local2global / global2local translate between this shard's
	// dictionary and the coordinator's. local2global is dense over local
	// IDs; global2local is dense over global IDs with 0 = absent here.
	local2global []store.ID
	global2local []store.ID
}

// NumTriples returns the number of owned triples.
func (sh *Shard) NumTriples() int { return sh.data.Len() }

// toLocal maps a global dictionary ID (or Wildcard) into the shard's
// dictionary. ok is false when the term does not occur on this shard —
// which means no owned triple can match a pattern naming it.
func (sh *Shard) toLocal(id store.ID) (store.ID, bool) {
	if id == store.Wildcard {
		return store.Wildcard, true
	}
	if int(id) >= len(sh.global2local) {
		return 0, false
	}
	l := sh.global2local[id]
	return l, l != 0
}

// homeShard assigns a subject term to its shard: FNV-1a over the term's
// full identity (kind, lexical value, datatype, language). Deterministic
// across runs and shard counts are the only requirements; balance comes
// from the hash.
func homeShard(t rdf.Term, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte{byte(t.Kind)})
	io.WriteString(h, t.Value)
	h.Write([]byte{0})
	io.WriteString(h, t.Datatype)
	h.Write([]byte{0})
	io.WriteString(h, t.Lang)
	return int(h.Sum64() % uint64(n))
}
