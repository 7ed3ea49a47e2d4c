package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/scoring"
)

// smallDBLP returns a shared small environment for harness tests.
var sharedEnv *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		sharedEnv = NewDBLPEnv(800, 1)
	}
	return sharedEnv
}

func TestFig4RunsAndC3Wins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(t)
	res := RunFig4(env, DBLPWorkload(), 10)
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(res.Rows))
	}
	c1, c2, c3 := res.MRR[scoring.PathLength], res.MRR[scoring.Popularity], res.MRR[scoring.Matching]
	t.Logf("MRR: C1=%.3f C2=%.3f C3=%.3f", c1, c2, c3)
	// The paper's qualitative claims: C3 is superior, and a meaningful
	// fraction of information needs is answered at rank 1.
	if c3 < 0.5 {
		t.Errorf("C3 MRR = %.3f, expected ≥ 0.5 — gold queries may be misaligned:\n%s", c3, res)
	}
	if c3+1e-9 < c1 || c3+1e-9 < c2 {
		t.Errorf("C3 (%.3f) should dominate C1 (%.3f) and C2 (%.3f)\n%s", c3, c1, c2, res)
	}
	if !strings.Contains(res.String(), "MRR") {
		t.Error("table rendering broken")
	}
}

func TestFig4TAP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := NewTAPEnv(25, 1)
	res := RunFig4(env, TAPWorkload(), 10)
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	c3 := res.MRR[scoring.Matching]
	t.Logf("TAP MRR: C1=%.3f C2=%.3f C3=%.3f",
		res.MRR[scoring.PathLength], res.MRR[scoring.Popularity], c3)
	if c3 < 0.4 {
		t.Errorf("TAP C3 MRR = %.3f too low:\n%s", c3, res)
	}
}

func TestFig5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(t)
	res := RunFig5(env, PerfWorkload(), 10)
	if len(res.Cells) != 10 {
		t.Fatalf("cells for %d queries, want 10", len(res.Cells))
	}
	// Our system must produce answers for the sentinel-based queries.
	ours := 0
	for _, q := range res.Queries {
		if res.Cells[q.ID][SysOurs].Outputs > 0 {
			ours++
		}
	}
	if ours < 6 {
		t.Errorf("our system produced answers for only %d/10 queries:\n%s", ours, res)
	}
	if !strings.Contains(res.String(), "Q10") {
		t.Error("table rendering broken")
	}
}

// fig4Ranks is one Fig. 4 row's golden: the 1-based rank of the first
// gold-equivalent candidate under C1, C2 and C3 (0: not in the top 10).
type fig4Ranks struct {
	id         string
	c1, c2, c3 int
}

// checkFig4Golden compares every row's ranks with the golden table. The
// table pins what the pipeline answers today; a change to it is an
// answer change and must be re-based on purpose.
func checkFig4Golden(t *testing.T, res *Fig4Result, want []fig4Ranks) {
	t.Helper()
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	rank := func(rr float64) int {
		if rr == 0 {
			return 0
		}
		return int(math.Round(1 / rr))
	}
	for i, row := range res.Rows {
		got := fig4Ranks{row.ID, rank(row.RR[scoring.PathLength]), rank(row.RR[scoring.Popularity]), rank(row.RR[scoring.Matching])}
		if got != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

// TestFig4GoldenDBLP pins the gold ranks of the 30 DBLP rows (800
// publications, seed 1).
func TestFig4GoldenDBLP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFig4Golden(t, RunFig4(testEnv(t), DBLPWorkload(), 10), []fig4Ranks{
		{"D01", 1, 1, 1}, {"D02", 1, 1, 1}, {"D03", 1, 1, 1}, {"D04", 1, 1, 1},
		{"D05", 1, 1, 1}, {"D06", 1, 1, 1}, {"D07", 1, 1, 1}, {"D08", 1, 1, 1},
		{"D09", 1, 1, 1}, {"D10", 1, 1, 1}, {"D11", 1, 1, 1}, {"D12", 1, 1, 1},
		{"D13", 1, 1, 1}, {"D14", 2, 1, 1}, {"D15", 1, 1, 1}, {"D16", 1, 1, 1},
		{"D17", 1, 1, 1}, {"D18", 1, 1, 1}, {"D19", 1, 2, 2}, {"D20", 1, 1, 1},
		{"D21", 1, 1, 1}, {"D22", 1, 1, 1},
		// Recorded, not approved: the misspelled "cimano" misses the
		// gold query under every scheme.
		{"D23", 0, 0, 0},
		{"D24", 1, 1, 1}, {"D25", 1, 1, 1}, {"D26", 1, 1, 1}, {"D27", 1, 1, 1},
		{"D28", 1, 1, 1}, {"D29", 1, 1, 1}, {"D30", 1, 1, 1},
	})
}

// TestFig4GoldenTAP pins the gold ranks of the 9 TAP rows (25 instances
// per class, seed 1).
func TestFig4GoldenTAP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFig4Golden(t, RunFig4(NewTAPEnv(25, 1), TAPWorkload(), 10), []fig4Ranks{
		{"T1", 3, 3, 3}, {"T2", 1, 1, 1}, {"T3", 1, 1, 1}, {"T4", 2, 1, 1},
		{"T5", 1, 1, 1}, {"T6", 1, 1, 1}, {"T7", 1, 1, 1}, {"T8", 1, 1, 1},
		{"T9", 5, 1, 1},
	})
}

// TestFig5GoldenOutputs pins "Our Solution"'s answer count per Fig. 5
// query (800 publications, seed 1). The zeros are the defect ROADMAP
// item 4 ("Answers that exist") names: the top-10 queries for those
// keywords have no answers. The golden records them; it does not
// approve them.
func TestFig5GoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want := map[string]int{
		"Q1": 3, "Q2": 10, "Q3": 8, "Q4": 10,
		"Q5": 0, // item 4 defect
		"Q6": 7, "Q7": 3,
		"Q8":  0, // item 4 defect
		"Q9":  3,
		"Q10": 0, // item 4 defect
	}
	res := RunFig5(testEnv(t), PerfWorkload(), 10)
	if len(res.Queries) != len(want) {
		t.Fatalf("%d queries, want %d", len(res.Queries), len(want))
	}
	for _, q := range res.Queries {
		if got := res.Cells[q.ID][SysOurs].Outputs; got != want[q.ID] {
			t.Errorf("%s %v: %d outputs, want %d", q.ID, q.Keywords, got, want[q.ID])
		}
	}
}

func TestFig6aRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(t)
	res := RunFig6a(env, DBLPWorkload(), []int{1, 10, 50})
	if len(res.Lengths) == 0 {
		t.Fatal("no query lengths measured")
	}
	if !strings.Contains(res.String(), "len=") {
		t.Error("table rendering broken")
	}
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig6b([]*Env{NewDBLPEnv(800, 1), NewLUBMEnv(1, 1), NewTAPEnv(15, 1)})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig6bRow{}
	for _, r := range res.Rows {
		byName[r.Dataset] = r
	}
	// The paper's Fig. 6b observations.
	if byName["TAP"].GraphElems <= byName["DBLP"].GraphElems {
		t.Errorf("TAP graph index (%d) should exceed DBLP's (%d)\n%s",
			byName["TAP"].GraphElems, byName["DBLP"].GraphElems, res)
	}
	if byName["DBLP"].KeywordRefs <= byName["TAP"].KeywordRefs {
		t.Errorf("DBLP keyword index (%d refs) should exceed TAP's (%d)\n%s",
			byName["DBLP"].KeywordRefs, byName["TAP"].KeywordRefs, res)
	}
}

func TestAblationSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := NewDBLPEnv(400, 1)
	res := RunAblationSummary(env, DBLPWorkload()[:6])
	if res.DegenerateElems <= res.SummaryElems {
		t.Errorf("degenerate graph index (%d) should dwarf the summary (%d)",
			res.DegenerateElems, res.SummaryElems)
	}
	t.Logf("\n%s", res)
}

func TestAblationDmaxAndCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(t)
	d := RunAblationDmax(env, DBLPWorkload()[:8], []int{4, 8, 12})
	if len(d.MeanMs) != 3 {
		t.Fatal("dmax sweep incomplete")
	}
	c := RunAblationCap(env, DBLPWorkload()[:8], []int{1, 10, 100})
	if len(c.MeanMs) != 3 {
		t.Fatal("cap sweep incomplete")
	}
	t.Logf("\n%s\n%s", d, c)
}

func TestBlinksBlockCountsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(t)
	a := env.Blinks(300, baseline.PartitionBFS).Stats()
	b := env.Blinks(1000, baseline.PartitionBFS).Stats()
	if a.Blocks == b.Blocks {
		t.Fatal("block configurations identical")
	}
	if b.EdgeCut <= a.EdgeCut {
		t.Errorf("more blocks should cut more edges: 300→%d, 1000→%d", a.EdgeCut, b.EdgeCut)
	}
}
