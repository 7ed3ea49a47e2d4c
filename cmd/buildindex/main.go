// Command buildindex runs the off-line preprocessing of Fig. 2 on an RDF
// file and reports the index statistics of the paper's Fig. 6b: keyword
// index size (dominated by V-vertices), graph index size (dominated by
// the number of classes), and indexing time.
//
// With -snapshot it also persists the built indexes as one mmap-able
// engine snapshot file (internal/snapfmt): serverd then cold-starts by
// mapping the file instead of re-deriving orderings, postings, and the
// summary graph.
//
// Usage:
//
//	buildindex -data dblp.nt
//	buildindex -data example.ttl -format turtle
//	buildindex -data dblp.nt -snapshot dblp.swdb       # engine snapshot
//	buildindex -data dblp.swdb -format snapshot        # re-ingest one
//	buildindex -data dblp.nt -snapshot dblp.swdb -wal wal/  # + empty WAL
//
// -wal DIR initializes an empty write-ahead log pinned to the snapshot's
// triple count, so `serverd -snapshot FILE -wal DIR` boots a live,
// ingest-capable server from a fully pre-built base.
//
// -compact DIR runs an offline checkpoint of an existing live WAL
// directory: it boots the store exactly as serverd would (manifest,
// snapshot, and log), merges every replayed batch, writes a fresh
// snapshot + MANIFEST, and truncates the covered segments — so the next
// serverd boot replays nothing. -compact composes with no other flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	repro "repro"
	ingestpkg "repro/internal/ingest"
	"repro/internal/snapshot"
	"repro/internal/store"
)

func main() {
	data := flag.String("data", "", "RDF input file")
	format := flag.String("format", "ntriples", "input format: ntriples | turtle | snapshot (an engine .swdb file written by -snapshot; its triples are re-ingested)")
	snapOut := flag.String("snapshot", "", "write a mmap-able engine snapshot file")
	walDir := flag.String("wal", "", "initialize an empty write-ahead log directory next to the engine snapshot, ready for serverd -wal (needs -snapshot)")
	compactDir := flag.String("compact", "", "offline-checkpoint an existing live WAL directory: merge every batch, install a fresh snapshot + MANIFEST, truncate covered segments")
	compactBase := flag.String("base", "", "base engine snapshot for -compact when the WAL directory has no MANIFEST yet (same file serverd booted with)")
	flag.Parse()
	if *compactDir != "" {
		if *data != "" || *snapOut != "" || *walDir != "" {
			log.Fatal("-compact composes only with -base; it reads and rewrites the WAL directory in place")
		}
		compact(*compactDir, *compactBase)
		return
	}
	if *compactBase != "" {
		log.Fatal("-base qualifies -compact; it has no meaning in a build run")
	}
	if *data == "" {
		log.Fatal("missing -data file")
	}
	if *walDir != "" && *snapOut == "" {
		log.Fatal("-wal initializes a log for an engine snapshot; it needs -snapshot FILE")
	}

	e := repro.New(repro.Config{})
	n, err := ingest(e, *data, *format)
	if err != nil {
		log.Fatal(err)
	}

	e.Build()
	if *snapOut != "" {
		if err := snapshot.WriteEngine(*snapOut, e); err != nil {
			log.Fatal(err)
		}
		fi, err := os.Stat(*snapOut)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot:       %s (%d KB, mmap-able)\n", *snapOut, fi.Size()/1024)
		if *walDir != "" {
			// An empty log pinned to the snapshot's triple count: serverd
			// -snapshot FILE -wal DIR then boots live without a replay.
			w, err := ingestpkg.Create(*walDir, int64(e.NumTriples()), ingestpkg.WALOptions{})
			if err != nil {
				log.Fatal(err)
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wal:            %s (empty, pinned to %d base triples — serve with: serverd -snapshot %s -wal %s)\n",
				*walDir, e.NumTriples(), *snapOut, *walDir)
		}
	}

	g := e.Graph().Stats()
	k := e.KeywordIndex().Stats()

	fmt.Printf("data:           %d triples (%d E-vertices, %d C-vertices, %d V-vertices)\n",
		n, g.EVertices, g.CVertices, g.VVertices)
	fmt.Printf("edges:          %d R-edges (%d labels), %d A-edges (%d labels), %d type, %d subclass\n",
		g.REdges, g.RLabels, g.AEdges, g.ALabels, g.TypeEdges, g.SubEdges)
	fmt.Printf("keyword index:  %d refs (%d value, %d class, %d attr, %d rel), %d terms, %d postings, ~%d KB\n",
		k.Refs, k.ValueRefs, k.ClassRefs, k.AttrRefs, k.RelRefs, k.Terms, k.Postings, k.EstimatedBytes()/1024)
	fmt.Printf("graph index:    %d elements (%d vertices)\n",
		e.Summary().NumElements(), e.Summary().NumVertices())
	fmt.Printf("indexing time:  %v\n", e.BuildTime)
}

// compact boots a live WAL directory the way serverd would and runs one
// checkpoint, leaving a snapshot + MANIFEST and a truncated log behind.
func compact(dir, base string) {
	l, info, err := ingestpkg.Boot(ingestpkg.BootConfig{
		SnapshotPath: base,
		WALDir:       dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("booted:         %s (%d triples, replayed %d batches, low water %d)\n",
		info.Source, l.NumTriples(), info.ReplayedBatches, info.LowWater)
	res, err := l.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	if res.Skipped {
		fmt.Println("checkpoint:     skipped — the manifest already covers every batch")
		return
	}
	fmt.Printf("checkpoint:     low water %d, %d triples -> %s", res.LowWater, res.Triples, res.Snapshot)
	if res.Expired > 0 {
		fmt.Printf(" (%d expired triples dropped)", res.Expired)
	}
	fmt.Println()
	fmt.Printf("log truncated:  %d segments, %d KB reclaimed in %v\n",
		res.SegmentsRemoved, res.BytesRemoved/1024, res.Duration)
	fmt.Printf("next boot:      serverd -wal %s replays nothing\n", dir)
}

// ingest loads the input file into dst. A -format snapshot file is an
// engine snapshot: it is booted and its triples re-ingested, so an
// existing snapshot can be re-snapshotted. The mapping stays open until
// process exit — the decoded terms alias it.
func ingest(dst *repro.Engine, path, format string) (int, error) {
	if format == "snapshot" {
		src, _, err := snapshot.LoadEngine(path, repro.Config{}, snapshot.LoadOptions{})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		st := src.Store()
		st.ForEach(func(t store.IDTriple) { dst.AddTriple(st.Decode(t)) })
		return st.Len(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch format {
	case "ntriples":
		return dst.LoadNTriples(f)
	case "turtle":
		return dst.LoadTurtle(f)
	default:
		return 0, fmt.Errorf("unknown format %q", format)
	}
}
