package store

import (
	"fmt"

	"repro/internal/snapfmt"
)

// WriteSections serializes the store — dictionary (records, string
// arena, interning hash table) and the three SoA orderings with their
// offset tables — under the given section group. The payloads are the
// in-memory layouts verbatim, so the matching ReadSections is mmap +
// slice fixup with zero parse cost.
func (s *Store) WriteSections(w *snapfmt.Writer, group uint32) error {
	s.ensure()
	n := s.NumTerms()

	recs := make([]termRec, n)
	arenaLen := 0
	for id := 1; id <= n; id++ {
		t := s.Term(ID(id))
		arenaLen += len(t.Value) + len(t.Datatype) + len(t.Lang)
	}
	arena := make([]byte, 0, arenaLen)
	for id := 1; id <= n; id++ {
		t := s.Term(ID(id))
		recs[id-1] = termRec{
			Off:  uint64(len(arena)),
			VLen: uint32(len(t.Value)),
			DLen: uint32(len(t.Datatype)),
			LLen: uint32(len(t.Lang)),
			Kind: uint32(t.Kind),
		}
		arena = append(arena, t.Value...)
		arena = append(arena, t.Datatype...)
		arena = append(arena, t.Lang...)
	}
	hash := buildHashTable(s.Term, n)

	meta := []storeMetaRec{{
		NumTerms:   uint64(n),
		NumTriples: uint64(s.Len()),
		ArenaLen:   uint64(len(arena)),
		HashLen:    uint64(len(hash)),
	}}
	if err := w.Add(snapfmt.SecStoreMeta, group, snapfmt.AsBytes(meta)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecDictRecs, group, snapfmt.AsBytes(recs)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecDictArena, group, arena); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecDictHash, group, snapfmt.AsBytes(hash)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecColsSPO, group, snapfmt.AsBytes(s.spo.s), snapfmt.AsBytes(s.spo.p), snapfmt.AsBytes(s.spo.o)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecColsPOS, group, snapfmt.AsBytes(s.pos.s), snapfmt.AsBytes(s.pos.p), snapfmt.AsBytes(s.pos.o)); err != nil {
		return err
	}
	if err := w.Add(snapfmt.SecColsOSP, group, snapfmt.AsBytes(s.osp.s), snapfmt.AsBytes(s.osp.p), snapfmt.AsBytes(s.osp.o)); err != nil {
		return err
	}
	subjOff, predOff, objOff := s.subjOff, s.predOff, s.objOff
	if len(subjOff) == 0 {
		// A store that never indexed any triples (e.g. a DictionaryView)
		// has no offset tables; serialize all-zero ones so the loaded
		// store ranges as empty.
		tl := n + 2
		zero := make([]int32, 3*tl)
		subjOff, predOff, objOff = zero[0:tl:tl], zero[tl:2*tl:2*tl], zero[2*tl:]
	}
	return w.Add(snapfmt.SecStoreOffsets, group,
		snapfmt.AsBytes(subjOff), snapfmt.AsBytes(predOff), snapfmt.AsBytes(objOff))
}

// ReadSections fixes up a snapshot-backed store from the given group's
// sections: every column, offset table, term record, and arena byte is
// a zero-copy view into the reader's mapped region, and the dictionary
// serves Lookup from the serialized hash table. The store is read-only
// (Intern and Add panic) and valid only while the reader stays open.
func ReadSections(r *snapfmt.Reader, group uint32) (*Store, error) {
	meta, err := readRecs[storeMetaRec](r, snapfmt.SecStoreMeta, group)
	if err != nil {
		return nil, err
	}
	if len(meta) != 1 {
		return nil, fmt.Errorf("store: snapshot meta: want 1 record, got %d", len(meta))
	}
	numTerms := int(meta[0].NumTerms)
	numTriples := int(meta[0].NumTriples)

	recs, err := readRecs[termRec](r, snapfmt.SecDictRecs, group)
	if err != nil {
		return nil, err
	}
	arena, err := r.Section(snapfmt.SecDictArena, group)
	if err != nil {
		return nil, err
	}
	hash, err := readRecs[uint32](r, snapfmt.SecDictHash, group)
	if err != nil {
		return nil, err
	}
	if len(recs) != numTerms || len(arena) != int(meta[0].ArenaLen) || len(hash) != int(meta[0].HashLen) {
		return nil, fmt.Errorf("store: snapshot dictionary sections disagree with meta (terms %d/%d, arena %d/%d, hash %d/%d)",
			len(recs), numTerms, len(arena), meta[0].ArenaLen, len(hash), meta[0].HashLen)
	}

	spo, err := readCols(r, snapfmt.SecColsSPO, group, numTriples)
	if err != nil {
		return nil, err
	}
	pos, err := readCols(r, snapfmt.SecColsPOS, group, numTriples)
	if err != nil {
		return nil, err
	}
	osp, err := readCols(r, snapfmt.SecColsOSP, group, numTriples)
	if err != nil {
		return nil, err
	}

	offs, err := readRecs[int32](r, snapfmt.SecStoreOffsets, group)
	if err != nil {
		return nil, err
	}
	tl := numTerms + 2
	if len(offs) != 3*tl {
		return nil, fmt.Errorf("store: snapshot offset tables: want %d entries, got %d", 3*tl, len(offs))
	}

	return &Store{
		dict:    &loadedDict{recs: recs, arena: arena, hash: hash},
		spo:     spo,
		pos:     pos,
		osp:     osp,
		subjOff: offs[0:tl:tl],
		predOff: offs[tl : 2*tl : 2*tl],
		objOff:  offs[2*tl:],
	}, nil
}

func readRecs[T any](r *snapfmt.Reader, kind, group uint32) ([]T, error) {
	b, err := r.Section(kind, group)
	if err != nil {
		return nil, err
	}
	out, err := snapfmt.CastSlice[T](b)
	if err != nil {
		return nil, fmt.Errorf("store: section %q: %w", snapfmt.KindName(kind), err)
	}
	return out, nil
}

func readCols(r *snapfmt.Reader, kind, group uint32, n int) (cols, error) {
	all, err := readRecs[ID](r, kind, group)
	if err != nil {
		return cols{}, err
	}
	if len(all) != 3*n {
		return cols{}, fmt.Errorf("store: section %q: want %d IDs, got %d", snapfmt.KindName(kind), 3*n, len(all))
	}
	return cols{s: all[0:n:n], p: all[n : 2*n : 2*n], o: all[2*n:]}, nil
}
