// Package snapshot is the high-level face of the persistence
// subsystem: it writes a sealed engine into the snapfmt container
// format and boots one back by mmap + pointer fixup, with zero
// re-derivation of orderings, postings, or the summary graph.
//
// One engine snapshot is one .swdb file holding, under a single
// section group: the store's dictionary and three SoA orderings, the
// data graph's vertex classification, the summary graph, and the
// keyword index.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/keywordindex"
	"repro/internal/snapfmt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/thesaurus"
)

// GroupPrimary is the section group of an engine snapshot's components.
const GroupPrimary uint32 = 0

// Layout names for Meta.Layout. Only LayoutEngine is loadable; the two
// cluster layouts name files an earlier cluster snapshot writer left
// behind, so LoadEngine can refuse them by name.
const (
	LayoutEngine  = "engine"
	LayoutCatalog = "cluster-catalog"
	LayoutShard   = "cluster-shard"
)

// ErrClusterSnapshot reports a cluster snapshot: a cluster-catalog or
// cluster-shard file, or the directory that held them. The engine cannot
// boot from either; rebuild the data into one engine file.
var ErrClusterSnapshot = errors.New("cluster snapshots are no longer supported; rebuild with buildindex -snapshot FILE")

// Meta is the JSON snapshot-level metadata section, identifying what
// the file holds and where it came from.
type Meta struct {
	Layout      string `json:"layout"`
	Triples     int    `json:"triples"`
	Terms       int    `json:"terms"`
	CreatedUnix int64  `json:"created_unix,omitempty"`
	Tool        string `json:"tool,omitempty"`
}

// WriteMeta adds the metadata section to a container.
func WriteMeta(w *snapfmt.Writer, m Meta) error {
	if m.CreatedUnix == 0 {
		m.CreatedUnix = time.Now().Unix()
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return w.Add(snapfmt.SecMeta, 0, b)
}

// ReadMeta parses the metadata section of a container.
func ReadMeta(r *snapfmt.Reader) (Meta, error) {
	var m Meta
	b, err := r.Section(snapfmt.SecMeta, 0)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("snapshot: metadata section unparseable: %w", err)
	}
	return m, nil
}

// LoadOptions tune snapshot loading.
type LoadOptions struct {
	// Mode selects the byte backing (default: mmap with heap fallback).
	Mode snapfmt.Mode
	// SkipVerify disables the per-section CRC pass, making open time
	// independent of file size for beyond-RAM lazy paging. Framing
	// checks still run. See snapfmt.Options.
	SkipVerify bool
}

// SectionSize describes one section's on-disk footprint, for the
// observability surface.
type SectionSize struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// Info describes a completed snapshot load. It owns the underlying
// mapping: the loaded engine is valid until Close.
type Info struct {
	Path          string
	FormatVersion int
	Mode          string // "mmap" or "heap"
	LoadDuration  time.Duration
	TotalBytes    int64
	Sections      []SectionSize

	r *snapfmt.Reader
}

// Close unmaps the region backing the load. The engine fixed up from it
// must not be used afterwards. A serving process normally never calls
// this; tests and benchmarks do.
func (i *Info) Close() error {
	if i.r == nil {
		return nil
	}
	err := i.r.Close()
	i.r = nil
	return err
}

// WriteEngine snapshots a built engine into one container file. The
// engine is built first if needed (Build is idempotent); the snapshot
// captures the sealed in-memory layouts verbatim.
func WriteEngine(path string, e *engine.Engine) (err error) {
	e.Build()
	w, werr := snapfmt.Create(path)
	if werr != nil {
		return werr
	}
	defer func() {
		if err != nil {
			os.Remove(path)
		}
	}()
	st := e.Store()
	if err = WriteMeta(w, Meta{
		Layout:  LayoutEngine,
		Triples: e.NumTriples(),
		Terms:   st.NumTerms(),
		Tool:    "buildindex",
	}); err != nil {
		return err
	}
	if err = st.WriteSections(w, GroupPrimary); err != nil {
		return err
	}
	if err = e.Graph().WriteSections(w, GroupPrimary); err != nil {
		return err
	}
	if err = e.Summary().WriteSections(w, GroupPrimary); err != nil {
		return err
	}
	if err = e.KeywordIndex().WriteSections(w, GroupPrimary); err != nil {
		return err
	}
	return w.Close()
}

// LoadEngine boots a sealed engine from an engine snapshot: open +
// framing/CRC checks, then pure pointer fixup — no ordering sort, no
// posting build, no summary derivation. On success the returned Info
// owns the mapping; keep it alive as long as the engine serves.
func LoadEngine(path string, cfg engine.Config, opts LoadOptions) (*engine.Engine, *Info, error) {
	start := time.Now()
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return nil, nil, fmt.Errorf("snapshot: %s is a directory, the shape of a cluster snapshot: %w", path, ErrClusterSnapshot)
	}
	r, err := snapfmt.Open(path, snapfmt.Options{Mode: opts.Mode, SkipVerify: opts.SkipVerify})
	if err != nil {
		return nil, nil, err
	}
	meta, err := ReadMeta(r)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	if meta.Layout != LayoutEngine {
		r.Close()
		if meta.Layout == LayoutShard || meta.Layout == LayoutCatalog {
			return nil, nil, fmt.Errorf("snapshot: %s is a %s file: %w", path, meta.Layout, ErrClusterSnapshot)
		}
		return nil, nil, fmt.Errorf("snapshot: %s has unknown layout %q", path, meta.Layout)
	}
	eng, err := readEngineParts(r, cfg, start)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	info := &Info{
		Path:          path,
		FormatVersion: r.FormatVersion(),
		Mode:          r.ModeName(),
		LoadDuration:  time.Since(start),
		TotalBytes:    r.Size(),
		r:             r,
	}
	for _, s := range r.Sections() {
		info.Sections = append(info.Sections, SectionSize{Name: s.Name, Bytes: s.Bytes})
	}
	return eng, info, nil
}

// readEngineParts fixes up the four components of an engine from the
// primary group of an open container.
func readEngineParts(r *snapfmt.Reader, cfg engine.Config, start time.Time) (*engine.Engine, error) {
	st, err := store.ReadSections(r, GroupPrimary)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadSections(r, GroupPrimary, st)
	if err != nil {
		return nil, err
	}
	sum, err := summary.ReadSections(r, GroupPrimary, g)
	if err != nil {
		return nil, err
	}
	kwix, err := keywordindex.ReadSections(r, GroupPrimary, g, loadThesaurus(cfg))
	if err != nil {
		return nil, err
	}
	return engine.NewFromParts(cfg, st, g, sum, kwix, time.Since(start)), nil
}

// loadThesaurus mirrors the engine build's thesaurus selection.
func loadThesaurus(cfg engine.Config) *thesaurus.Thesaurus {
	if cfg.DisableSemantic {
		return nil
	}
	return cfg.WithDefaults().Thesaurus
}
