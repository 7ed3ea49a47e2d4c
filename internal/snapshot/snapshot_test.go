package snapshot_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/snapfmt"
	"repro/internal/snapshot"
)

// The engine-level golden round trip: a snapshot-booted engine must be
// indistinguishable from the live-built one — identical candidates
// (costs, order, SPARQL, descriptions), diagnostics, answer rows, and
// plans — in both mmap and heap modes.

func buildLive(tb testing.TB, triples []rdf.Triple) *engine.Engine {
	tb.Helper()
	e := engine.New(engine.Config{K: 10})
	e.AddTriples(triples)
	e.Build()
	return e
}

// compareEngines asserts both engines answer one keyword query
// identically, through search, execute (top 3), and explain.
func compareEngines(t *testing.T, label string, live, loaded *engine.Engine, keywords []string) {
	t.Helper()
	lc, linfo, lerr := live.SearchK(keywords, 0)
	sc, sinfo, serr := loaded.SearchK(keywords, 0)

	var lu, su *engine.UnmatchedKeywordsError
	lIsU := errors.As(lerr, &lu)
	sIsU := errors.As(serr, &su)
	if lIsU || sIsU {
		if lu == nil || su == nil || fmt.Sprint(lu.Keywords) != fmt.Sprint(su.Keywords) {
			t.Fatalf("%s %v: unmatched mismatch: live=%v snapshot=%v", label, keywords, lerr, serr)
		}
		return
	}
	if (lerr == nil) != (serr == nil) {
		t.Fatalf("%s %v: error mismatch: live=%v snapshot=%v", label, keywords, lerr, serr)
	}
	if lerr != nil {
		return
	}
	if fmt.Sprint(linfo.MatchCounts) != fmt.Sprint(sinfo.MatchCounts) {
		t.Errorf("%s %v: match counts: live=%v snapshot=%v", label, keywords, linfo.MatchCounts, sinfo.MatchCounts)
	}
	if linfo.Guaranteed != sinfo.Guaranteed {
		t.Errorf("%s %v: guaranteed: live=%v snapshot=%v", label, keywords, linfo.Guaranteed, sinfo.Guaranteed)
	}
	if len(lc) != len(sc) {
		t.Fatalf("%s %v: candidate count: live=%d snapshot=%d", label, keywords, len(lc), len(sc))
	}
	for i := range lc {
		if lc[i].Cost != sc[i].Cost {
			t.Fatalf("%s %v: candidate %d cost: live=%v snapshot=%v", label, keywords, i, lc[i].Cost, sc[i].Cost)
		}
		if lc[i].SPARQL() != sc[i].SPARQL() {
			t.Fatalf("%s %v: candidate %d SPARQL:\nlive:     %s\nsnapshot: %s", label, keywords, i, lc[i].SPARQL(), sc[i].SPARQL())
		}
		if lc[i].Describe() != sc[i].Describe() {
			t.Fatalf("%s %v: candidate %d description: live=%q snapshot=%q", label, keywords, i, lc[i].Describe(), sc[i].Describe())
		}
	}
	for i := 0; i < len(lc) && i < 3; i++ {
		lrs, err := live.ExecuteLimit(lc[i], 0)
		if err != nil {
			t.Fatalf("%s %v: live execute %d: %v", label, keywords, i, err)
		}
		srs, err := loaded.ExecuteLimit(sc[i], 0)
		if err != nil {
			t.Fatalf("%s %v: snapshot execute %d: %v", label, keywords, i, err)
		}
		lrs.SortRows()
		srs.SortRows()
		if fmt.Sprint(lrs.Vars) != fmt.Sprint(srs.Vars) {
			t.Fatalf("%s %v: execute %d vars: live=%v snapshot=%v", label, keywords, i, lrs.Vars, srs.Vars)
		}
		if fmt.Sprint(lrs.Rows) != fmt.Sprint(srs.Rows) {
			t.Fatalf("%s %v: execute %d rows differ (live %d, snapshot %d)",
				label, keywords, i, len(lrs.Rows), len(srs.Rows))
		}
		if lrs.Truncated != srs.Truncated {
			t.Errorf("%s %v: execute %d truncated: live=%v snapshot=%v", label, keywords, i, lrs.Truncated, srs.Truncated)
		}
		lplan, err := live.Explain(lc[i])
		if err != nil {
			t.Fatalf("%s %v: live explain %d: %v", label, keywords, i, err)
		}
		splan, err := loaded.Explain(sc[i])
		if err != nil {
			t.Fatalf("%s %v: snapshot explain %d: %v", label, keywords, i, err)
		}
		if lplan.String() != splan.String() {
			t.Fatalf("%s %v: explain %d:\nlive:\n%s\nsnapshot:\n%s", label, keywords, i, lplan, splan)
		}
	}
}

// dblpProbeQueries exercises exact, multi-keyword, typo (fuzzy), synonym
// (semantic), filter-operator, and unmatched paths.
func dblpProbeQueries() [][]string {
	return [][]string{
		{"thanh tran", "publication"},
		{"philipp cimiano", "aifb"},
		{"haofen wang", "article"},
		{"exploration candidates"},
		{"bidirectional", "expansion"},
		{"article", "cites", "inproceedings"},
		{"thanh tran"},
		{"aifb"},
		{"cimano", "publication"}, // typo → fuzzy match path
		{"writer", "aifb"},        // synonym → semantic path
		{"keyword", "search", "graph", "databases"},
		{"thanh tran", "before 2005"}, // filter operator
		{"publication", "after 2000"},
		{"zzzqqqxyzzy"},              // unmatched
		{"publication", "zzzqqqxyz"}, // partially unmatched
	}
}

func lubmProbeQueries() [][]string {
	return [][]string{
		{"professor"},
		{"course", "student"},
		{"department", "university"},
		{"publication", "professor"},
		{"university0"},
	}
}

func testEngineRoundTrip(t *testing.T, triples []rdf.Triple, queries [][]string) {
	live := buildLive(t, triples)
	path := filepath.Join(t.TempDir(), "engine.swdb")
	if err := snapshot.WriteEngine(path, live); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []snapfmt.Mode{snapfmt.ModeMmap, snapfmt.ModeHeap} {
		loaded, info, err := snapshot.LoadEngine(path, engine.Config{K: 10}, snapshot.LoadOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		label := info.Mode
		if info.FormatVersion != snapfmt.Version {
			t.Errorf("info.FormatVersion = %d, want %d", info.FormatVersion, snapfmt.Version)
		}
		if info.TotalBytes != fi.Size() {
			t.Errorf("info.TotalBytes = %d, want file size %d", info.TotalBytes, fi.Size())
		}
		if len(info.Sections) == 0 {
			t.Error("info.Sections empty")
		}
		if loaded.NumTriples() != live.NumTriples() {
			t.Fatalf("%s: NumTriples = %d, want %d", label, loaded.NumTriples(), live.NumTriples())
		}
		for _, kws := range queries {
			compareEngines(t, label, live, loaded, kws)
		}
		if err := info.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineSnapshotRoundTripDBLP(t *testing.T) {
	testEngineRoundTrip(t,
		datagen.DBLPTriples(datagen.DBLPConfig{Publications: 400, Seed: 1}),
		dblpProbeQueries())
}

func TestEngineSnapshotRoundTripLUBM(t *testing.T) {
	testEngineRoundTrip(t,
		datagen.LUBMTriples(datagen.LUBMConfig{Universities: 1, Seed: 1}),
		lubmProbeQueries())
}

// TestEngineSnapshotCorruptionMatrix bit-flips every section of a real
// engine snapshot, one copy per section, and asserts the load refuses
// each with a CRCError naming exactly the damaged section — plus the
// framing-level failures (magic, truncation, version) surfacing through
// the high-level LoadEngine API with their distinct identities.
func TestEngineSnapshotCorruptionMatrix(t *testing.T) {
	live := buildLive(t, datagen.DBLPTriples(datagen.DBLPConfig{Publications: 60, Seed: 1}))
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.swdb")
	if err := snapshot.WriteEngine(path, live); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snapfmt.Open(path, snapfmt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	secs := r.Sections()
	r.Close()

	load := func(p string) error {
		eng, info, err := snapshot.LoadEngine(p, engine.Config{}, snapshot.LoadOptions{})
		if err == nil {
			info.Close()
			_ = eng
		}
		return err
	}
	writeCorrupt := func(t *testing.T, mutate func(b []byte) []byte) string {
		t.Helper()
		b := mutate(append([]byte(nil), pristine...))
		p := filepath.Join(t.TempDir(), "corrupt.swdb")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	flipped := 0
	for _, s := range secs {
		if s.Bytes == 0 {
			continue
		}
		flipped++
		s := s
		t.Run(fmt.Sprintf("%s-g%d", s.Name, s.Group), func(t *testing.T) {
			bad := writeCorrupt(t, func(b []byte) []byte {
				b[s.Offset+s.Bytes/2] ^= 0x20
				return b
			})
			err := load(bad)
			var ce *snapfmt.CRCError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want CRCError", err)
			}
			if ce.Kind != s.Kind || ce.Group != s.Group {
				t.Errorf("CRCError names %q group %d, corrupted %q group %d",
					snapfmt.KindName(ce.Kind), ce.Group, s.Name, s.Group)
			}
		})
	}
	if flipped < 10 {
		t.Errorf("only %d non-empty sections in an engine snapshot; expected the full component set", flipped)
	}

	t.Run("bad-magic", func(t *testing.T) {
		// A flipped magic byte, and the magic of the retired gob store
		// stream, which is no longer a snapshot format.
		retiredMagic := []byte{'R', 'D', 'F', 'S', 'N', 'A', 'P', '1'}
		for _, mutate := range []func(b []byte) []byte{
			func(b []byte) []byte { b[0] ^= 0xFF; return b },
			func(b []byte) []byte { copy(b, retiredMagic); return b },
		} {
			if err := load(writeCorrupt(t, mutate)); !errors.Is(err, snapfmt.ErrBadMagic) {
				t.Fatalf("got %v, want ErrBadMagic", err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		bad := writeCorrupt(t, func(b []byte) []byte { return b[:len(b)-7] })
		if err := load(bad); !errors.Is(err, snapfmt.ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		bad := writeCorrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], snapfmt.Version+3)
			return b
		})
		var ve *snapfmt.VersionError
		if err := load(bad); !errors.As(err, &ve) || ve.Got != snapfmt.Version+3 {
			t.Fatalf("got %v, want VersionError{Got: %d}", load(bad), snapfmt.Version+3)
		}
	})
}

// TestLoadEngineRejectsClusterFiles pins the misuse errors: a file an
// earlier cluster snapshot writer left behind (catalog or shard layout),
// or the directory that held them, must be refused with
// ErrClusterSnapshot and the rebuild hint, not with a missing-section
// error or a bare EISDIR.
func TestLoadEngineRejectsClusterFiles(t *testing.T) {
	dir := t.TempDir()
	paths := []string{dir}
	for _, layout := range []string{snapshot.LayoutCatalog, snapshot.LayoutShard} {
		path := filepath.Join(dir, layout+".swdb")
		w, err := snapfmt.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.WriteMeta(w, snapshot.Meta{Layout: layout, Triples: 1, Terms: 3}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		_, _, err := snapshot.LoadEngine(path, engine.Config{}, snapshot.LoadOptions{})
		if !errors.Is(err, snapshot.ErrClusterSnapshot) {
			t.Fatalf("%s: got %v, want ErrClusterSnapshot", path, err)
		}
		if want := "buildindex -snapshot FILE"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not hint %q", path, err, want)
		}
	}
}
