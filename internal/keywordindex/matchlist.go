package keywordindex

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/snapfmt"
	"repro/internal/store"
	"repro/internal/summary"
)

// matchRec is the fixed on-disk record for one summary.Match in a
// standalone match list (the numeric-attribute matches of an index,
// and the cluster catalog's global copy of them).
type matchRec struct {
	ScoreBits uint64
	ClassOff  uint64
	Value     uint32
	Pred      uint32
	Class     uint32
	Kind      uint32
	ClassLen  uint32
	_         uint32
}

var _ = [unsafe.Sizeof(matchRec{})]byte{} == [40]byte{}

// WriteMatchSections serializes a match list under the given group as
// two sections: fixed records plus a shared class-ID arena.
func WriteMatchSections(w *snapfmt.Writer, group uint32, matches []summary.Match) error {
	recs := make([]matchRec, len(matches))
	var arena []store.ID
	for i, m := range matches {
		recs[i] = matchRec{
			ScoreBits: math.Float64bits(m.Score),
			ClassOff:  uint64(len(arena)),
			Value:     uint32(m.Value),
			Pred:      uint32(m.Pred),
			Class:     uint32(m.Class),
			Kind:      uint32(m.Kind),
			ClassLen:  uint32(len(m.Classes)),
		}
		arena = append(arena, m.Classes...)
	}
	if err := w.Add(snapfmt.SecNumericRecs, group, snapfmt.AsBytes(recs)); err != nil {
		return err
	}
	return w.Add(snapfmt.SecNumericArena, group, snapfmt.AsBytes(arena))
}

// ReadMatchSections fixes up a match list written by
// WriteMatchSections; the Classes slices alias the mapped arena and
// are capped at their length, so an append copies.
func ReadMatchSections(r *snapfmt.Reader, group uint32) ([]summary.Match, error) {
	recs, err := readSec[matchRec](r, snapfmt.SecNumericRecs, group)
	if err != nil {
		return nil, err
	}
	arena, err := readSec[store.ID](r, snapfmt.SecNumericArena, group)
	if err != nil {
		return nil, err
	}
	out := make([]summary.Match, len(recs))
	for i, rec := range recs {
		if rec.ClassOff+uint64(rec.ClassLen) > uint64(len(arena)) {
			return nil, fmt.Errorf("keywordindex: snapshot match %d class list outside arena", i)
		}
		out[i] = summary.Match{
			Kind:  summary.MatchKind(rec.Kind),
			Score: math.Float64frombits(rec.ScoreBits),
			Value: store.ID(rec.Value),
			Pred:  store.ID(rec.Pred),
			Class: store.ID(rec.Class),
		}
		if rec.ClassLen > 0 {
			end := rec.ClassOff + uint64(rec.ClassLen)
			out[i].Classes = arena[rec.ClassOff:end:end]
		}
	}
	return out, nil
}
