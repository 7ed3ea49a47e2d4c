// Command advanced demonstrates the production-oriented features around
// the core pipeline: index snapshots (the off-line phase persisted and
// mapped back in by the on-line phase, exactly as buildindex and serverd
// hand it off), filter-operator keywords ("before 2005" — the paper's
// Sec. IX extension), and EXPLAIN plans from the underlying database
// engine.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	repro "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/snapshot"
)

func main() {
	// ── Build once, snapshot, reload: the offline phase made persistent.
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 5000, Seed: 11})
	e := repro.New(repro.Config{K: 5})
	e.AddTriples(triples)

	dir, err := os.MkdirTemp("", "advanced")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "dblp.swdb")
	start := time.Now()
	if err := snapshot.WriteEngine(path, e); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index build + snapshot: %d triples → %d KB in %v\n", len(triples), fi.Size()/1024, time.Since(start))

	// A fresh engine (think: a new process) maps the built indexes back
	// in — no index rebuild.
	e2, snap, err := snapshot.LoadEngine(path, repro.Config{K: 5}, snapshot.LoadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()
	fmt.Printf("snapshot boot: %d triples in %v (%s-backed)\n\n", e2.NumTriples(), snap.LoadDuration, snap.Mode)

	// For comparison: the N-Triples text round trip.
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, triples); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	e3 := repro.New(repro.Config{})
	if _, err := e3.LoadNTriples(bytes.NewReader(nt.Bytes())); err != nil {
		log.Fatal(err)
	}
	e3.Build()
	fmt.Printf("(text parse + index build of the same data: %v, %d KB)\n\n",
		time.Since(start), nt.Len()/1024)

	// ── A filter query on the restored engine.
	keywords := []string{"philipp cimiano", "before 2005"}
	fmt.Printf("keyword query: %v\n", keywords)
	cands, info, err := e2.Search(keywords)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("computed %d candidates in %v\n", len(cands), info.Elapsed)
	top := cands[0]
	fmt.Printf("top: %s\n\nSPARQL:\n%s\n\n", top.Describe(), top.SPARQL())

	// ── EXPLAIN: how the database engine evaluates the chosen query.
	plan, err := e2.Explain(top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluation plan (tier, constant-match estimate, atom):\n%s\n", plan)

	rs, err := e2.Execute(top)
	if err != nil {
		log.Fatal(err)
	}
	rs.SortRows()
	fmt.Printf("answers (%d):\n%s", rs.Len(), rs)
}
