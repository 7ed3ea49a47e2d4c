package exec

// Golden equivalence: the iterative pooled join core must reproduce the
// preserved reference implementation (reference_test.go) bit-for-bit — same
// variables, same rows in the same discovery order, same Truncated flag —
// on the Fig. 1 example, a DBLP-shaped dataset, and a LUBM dataset,
// across every query shape the executor distinguishes (scans, stars,
// paths, repeated variables, constants at every position, projections,
// filters, limits, absent constants).

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// goldenCase is one (name, query) pair; every case runs at several
// limits.
type goldenCase struct {
	name string
	q    *query.ConjunctiveQuery
}

func dblpT(name string) rdf.Term { return rdf.NewIRI(datagen.DBLPNS + name) }

func dblpEngine(t *testing.T) *Engine {
	t.Helper()
	st := store.New()
	st.AddAll(datagen.DBLPTriples(datagen.DBLPConfig{Publications: 1500, Seed: 3}))
	return New(st)
}

func dblpGoldenCases() []goldenCase {
	typ := rdf.NewIRI(rdf.RDFType)
	v := query.Variable
	c := query.Constant
	return []goldenCase{
		{"type_scan", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("x"), O: c(dblpT("Article"))},
		}}},
		{"full_pred_scan", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: dblpT("author"), S: v("x"), O: v("y")},
		}}},
		{"star_author_year", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("p"), O: c(dblpT("Article"))},
			{Pred: dblpT("author"), S: v("p"), O: v("a")},
			{Pred: dblpT("name"), S: v("a"), O: v("n")},
			{Pred: dblpT("year"), S: v("p"), O: v("y")},
		}}},
		{"path_pub_author_inst", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: dblpT("author"), S: v("p"), O: v("a")},
			{Pred: dblpT("worksAt"), S: v("a"), O: v("i")},
			{Pred: dblpT("name"), S: v("i"), O: v("n")},
		}, Distinguished: []string{"p", "i"}}},
		{"projected_dedup", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: dblpT("author"), S: v("p"), O: v("a")},
			{Pred: typ, S: v("p"), O: v("cl")},
		}, Distinguished: []string{"cl"}}},
		{"year_filter", withFilter(&query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("p"), O: c(dblpT("Article"))},
			{Pred: dblpT("year"), S: v("p"), O: v("y")},
		}}, query.Filter{Var: "y", Op: query.OpGE, Value: 2000})},
		{"repeated_var_atom", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: dblpT("cites"), S: v("x"), O: v("x")},
		}}},
		{"absent_constant", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: dblpT("author"), S: v("p"), O: c(dblpT("NoSuchEntity"))},
		}}},
		{"constant_subject", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("p"), O: c(dblpT("Inproceedings"))},
			{Pred: dblpT("year"), S: v("p"), O: c(rdf.NewLiteral("2005"))},
			{Pred: dblpT("author"), S: v("p"), O: v("a")},
		}}},
		{"disconnected_product", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("x"), O: c(dblpT("Author"))},
			{Pred: typ, S: v("y"), O: c(dblpT("Venue"))},
		}}},
	}
}

func lubmGoldenCases() []goldenCase {
	v := query.Variable
	return []goldenCase{
		{"grad_courses", &query.ConjunctiveQuery{Atoms: []query.Atom{
			typePat("x", "GraduateStudent"),
			rel("x", "takesCourse", "y"),
			typePat("y", "GraduateCourse"),
		}, Distinguished: []string{"x", "y"}}},
		{"triangle", &query.ConjunctiveQuery{Atoms: []query.Atom{
			typePat("x", "GraduateStudent"),
			rel("x", "memberOf", "d"),
			rel("d", "subOrganizationOf", "u"),
			rel("x", "undergraduateDegreeFrom", "u"),
		}, Distinguished: []string{"x", "u"}}},
		{"advisor_path", &query.ConjunctiveQuery{Atoms: []query.Atom{
			rel("x", "advisor", "p"),
			rel("p", "worksFor", "d"),
		}, Distinguished: []string{"x", "d"}}},
		{"emails", &query.ConjunctiveQuery{Atoms: []query.Atom{
			typePat("p", "FullProfessor"),
			{Pred: lubm("emailAddress"), S: v("p"), O: v("e")},
		}}},
	}
}

func withFilter(q *query.ConjunctiveQuery, f query.Filter) *query.ConjunctiveQuery {
	q.AddFilter(f)
	return q
}

// assertGoldenEqual compares the optimized executor's result to the
// reference's field by field (everything but Stats, which the reference
// does not compute).
func assertGoldenEqual(t *testing.T, label string, got, want *ResultSet) {
	t.Helper()
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("%s: vars = %v, want %v", label, got.Vars, want.Vars)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated = %v, want %v", label, got.Truncated, want.Truncated)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v (rows must match in discovery order)",
				label, i, got.Rows[i], want.Rows[i])
		}
	}
}

func runGolden(t *testing.T, e *Engine, cases []goldenCase) {
	t.Helper()
	limits := []int{0, 1, 3, 7, 1000}
	for _, tc := range cases {
		for _, limit := range limits {
			want, errRef := e.ReferenceExecuteLimit(tc.q, limit)
			got, errNew := e.ExecuteLimit(tc.q, limit)
			if (errRef == nil) != (errNew == nil) {
				t.Fatalf("%s/limit=%d: err = %v, reference err = %v", tc.name, limit, errNew, errRef)
			}
			if errRef != nil {
				continue
			}
			assertGoldenEqual(t, tc.name+"/limit="+itoa(limit), got, want)
			// Run the optimized path again: the pooled scratch state must
			// not leak rows, dedup entries, or bindings across queries.
			again, err := e.ExecuteLimit(tc.q, limit)
			if err != nil {
				t.Fatalf("%s/limit=%d (warm): %v", tc.name, limit, err)
			}
			assertGoldenEqual(t, tc.name+"/limit="+itoa(limit)+"/warm", again, want)
		}
	}
}

func TestGoldenEquivalenceFig1(t *testing.T) {
	e, _ := fig1Engine(t)
	typ := rdf.NewIRI(rdf.RDFType)
	v := query.Variable
	cases := []goldenCase{
		{"fig1c", fig1cQuery()},
		{"fig1c_projected", func() *query.ConjunctiveQuery {
			q := fig1cQuery()
			q.Distinguished = []string{"z"}
			return q
		}()},
		{"all_types", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: typ, S: v("x"), O: v("c")},
		}}},
	}
	runGolden(t, e, cases)
}

// TestGoldenEquivalenceSelfLoops exercises the repeated-variable
// (sameVar) step with data where p(x,x) actually matches. The reference
// enforces S == O here exactly as the distributed executor always has
// (see reference_test.go on the preserved deviation).
func TestGoldenEquivalenceSelfLoops(t *testing.T) {
	knows := rdf.NewIRI("http://x/knows")
	likes := rdf.NewIRI("http://x/likes")
	a, b, c2 := rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b"), rdf.NewIRI("http://x/c")
	st := store.New()
	st.AddAll([]rdf.Triple{
		{S: a, P: knows, O: a},
		{S: a, P: knows, O: b},
		{S: b, P: knows, O: b},
		{S: b, P: knows, O: c2},
		{S: c2, P: knows, O: a},
		{S: a, P: likes, O: b},
		{S: b, P: likes, O: c2},
	})
	e := New(st)
	v := query.Variable
	cases := []goldenCase{
		{"self_loop", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: knows, S: v("x"), O: v("x")},
		}}},
		{"self_loop_join", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: knows, S: v("x"), O: v("x")},
			{Pred: likes, S: v("x"), O: v("y")},
		}}},
		{"join_then_self_loop", &query.ConjunctiveQuery{Atoms: []query.Atom{
			{Pred: likes, S: v("x"), O: v("y")},
			{Pred: knows, S: v("y"), O: v("y")},
		}}},
	}
	runGolden(t, e, cases)
	rs, err := e.Execute(cases[0].q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("self_loop: %d answers, want 2 (a and b)", rs.Len())
	}
}

func TestGoldenEquivalenceDBLP(t *testing.T) {
	runGolden(t, dblpEngine(t), dblpGoldenCases())
}

func TestGoldenEquivalenceLUBM(t *testing.T) {
	e, _ := lubmEnv(t)
	runGolden(t, e, lubmGoldenCases())
}

// TestGoldenBudgetTruncation pins the MaxSteps regime: when the join
// budget runs out mid-walk, both implementations stop with the same
// partial rows and Truncated set, and the new path reports why.
func TestGoldenBudgetTruncation(t *testing.T) {
	e := dblpEngine(t)
	q := &query.ConjunctiveQuery{Atoms: []query.Atom{
		{Pred: dblpT("author"), S: query.Variable("p"), O: query.Variable("a")},
		{Pred: dblpT("name"), S: query.Variable("a"), O: query.Variable("n")},
	}}
	for _, budget := range []int{1, 10, 157, 5000} {
		e.MaxSteps = budget
		want, err := e.ReferenceExecuteLimit(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ExecuteLimit(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertGoldenEqual(t, "budget="+itoa(budget), got, want)
		if got.Truncated && got.Stats.TruncatedBy != TruncBudget {
			t.Fatalf("budget=%d: TruncatedBy = %q, want %q", budget, got.Stats.TruncatedBy, TruncBudget)
		}
	}
	e.MaxSteps = 0
}

// TestMaxRowsCapsDedupTracking covers the unbounded-memory hazard fix:
// with no caller limit, distinct-answer tracking stops at MaxRows and the
// truncation is surfaced.
func TestMaxRowsCapsDedupTracking(t *testing.T) {
	e := dblpEngine(t)
	q := &query.ConjunctiveQuery{Atoms: []query.Atom{
		{Pred: dblpT("author"), S: query.Variable("p"), O: query.Variable("a")},
	}}
	full, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatalf("uncapped run truncated (dataset too large for the test premise)")
	}
	if full.Len() < 20 {
		t.Fatalf("test premise needs ≥ 20 distinct answers, got %d", full.Len())
	}

	e.MaxRows = 10
	capped, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 10 {
		t.Fatalf("capped run returned %d rows, want 10", capped.Len())
	}
	if !capped.Truncated || capped.Stats.TruncatedBy != TruncMaxRows {
		t.Fatalf("capped run: truncated=%v by %q, want true by %q",
			capped.Truncated, capped.Stats.TruncatedBy, TruncMaxRows)
	}
	for i := range capped.Rows {
		if !reflect.DeepEqual(capped.Rows[i], full.Rows[i]) {
			t.Fatalf("capped row %d diverges from uncapped prefix", i)
		}
	}

	// An explicit limit below the cap wins and is reported as the limit.
	limited, err := e.ExecuteLimit(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Len() != 5 || limited.Stats.TruncatedBy != TruncLimit {
		t.Fatalf("limit=5 under MaxRows=10: %d rows, reason %q", limited.Len(), limited.Stats.TruncatedBy)
	}
	e.MaxRows = 0
}

// TestExecStatsCounters sanity-checks the work counters on a query with
// known dedup behavior.
func TestExecStatsCounters(t *testing.T) {
	e, _ := fig1Engine(t)
	typ := rdf.NewIRI(rdf.RDFType)
	q := &query.ConjunctiveQuery{
		Atoms: []query.Atom{
			{Pred: typ, S: query.Variable("x"), O: query.Constant(ex("Publication"))},
			{Pred: ex("author"), S: query.Variable("x"), O: query.Variable("y")},
		},
		Distinguished: []string{"x"},
	}
	rs, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	st := rs.Stats
	if st.JoinIterations <= 0 {
		t.Fatalf("JoinIterations = %d, want > 0", st.JoinIterations)
	}
	// pub1 has two authors: two examined rows project to one answer.
	if st.RowsExamined != 2 || st.RowsDeduped != 1 || rs.Len() != 1 {
		t.Fatalf("examined=%d deduped=%d rows=%d, want 2/1/1", st.RowsExamined, st.RowsDeduped, rs.Len())
	}
	if st.TruncatedBy != TruncNone {
		t.Fatalf("TruncatedBy = %q, want none", st.TruncatedBy)
	}
}
