package summary

import (
	"testing"

	"repro/internal/race"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestNeighborsDoesNotAllocate pins the hot-path contract of the
// allocation-free exploration core: Augmented.Neighbors never builds a
// merged slice per call — base+bonus adjacency is precomputed once at
// Augment time. It covers all three element cases: a base element with
// bonus neighbors (the formerly allocating path), a plain base element,
// and an augmentation element.
func TestNeighborsDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	sg, st := buildFig1(t)
	name, _ := st.Lookup(ex("name"))
	aifb, _ := st.Lookup(rdf.NewLiteral("AIFB"))
	instID, _ := st.Lookup(ex("Institute"))
	ag := sg.Augment([][]Match{{
		{Kind: MatchValue, Score: 0.9, Value: aifb, Pred: name, Classes: []store.ID{instID}},
	}})

	inst := elemByClass(t, sg, st, "Institute")
	pub := elemByClass(t, sg, st, "Publication")
	extra := ag.Seeds()[0][0] // the augmentation value vertex
	if len(ag.Neighbors(inst)) <= len(sg.Neighbors(inst)) {
		t.Fatal("test premise broken: Institute gained no bonus neighbors")
	}

	var sink []ElemID
	allocs := testing.AllocsPerRun(100, func() {
		sink = ag.Neighbors(inst)
		sink = ag.Neighbors(pub)
		sink = ag.Neighbors(extra)
	})
	if allocs != 0 {
		t.Errorf("Neighbors allocates %.1f per 3 calls, want 0", allocs)
	}
	_ = sink
}

// TestMatchScoreDoesNotAllocate guards the dense score table: MatchScore
// runs once per created cursor under the C3 cost function.
func TestMatchScoreDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	sg, st := buildFig1(t)
	name, _ := st.Lookup(ex("name"))
	aifb, _ := st.Lookup(rdf.NewLiteral("AIFB"))
	instID, _ := st.Lookup(ex("Institute"))
	ag := sg.Augment([][]Match{{
		{Kind: MatchValue, Score: 0.9, Value: aifb, Pred: name, Classes: []store.ID{instID}},
	}})
	seed := ag.Seeds()[0][0]
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink = ag.MatchScore(seed)
		sink = ag.MatchScore(0)
	})
	if allocs != 0 {
		t.Errorf("MatchScore allocates %.1f per 2 calls, want 0", allocs)
	}
	_ = sink
}
