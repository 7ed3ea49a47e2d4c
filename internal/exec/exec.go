// Package exec is the repository's "underlying database engine" (the role
// Semplore plays in the paper's evaluation, Sec. VII-B): it evaluates
// conjunctive queries — basic graph patterns — against the triple store
// and returns the answers of Definition 3.
//
// Evaluation is index-nested-loop join over the store's SPO/POS/OSP
// orderings with a greedy, selectivity-based join order: at every step the
// most-bound pattern (fewest unbound positions, smallest exact match count
// for its bound prefix) is evaluated next. Answers are the distinct
// projections onto the distinguished variables.
//
// The join core is iterative and pooled: each step drives a range cursor
// over a zero-allocation store.View (contiguous component columns, no
// permutation indirection), backtracking walks an explicit cursor stack
// rather than the call stack, answers deduplicate through an ID-keyed
// open-addressing set (IDSet — no string keys), and rows materialize to
// rdf.Terms lazily, only after surviving filters and dedup. All scratch
// state recycles through a sync.Pool, so a warm engine's execute path
// allocates only the rows it returns. The pre-rewrite recursive
// implementation is preserved in reference_test.go and pins this one's
// output bit-for-bit in the golden tests.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/trace"
)

// Engine evaluates conjunctive queries against one store. It is stateless
// apart from the store reference and pooled scratch memory, and safe for
// concurrent use once the store is built.
type Engine struct {
	st *store.Store
	// MaxSteps bounds the number of join iterations per query as a
	// defense against degenerate plans (e.g. empty cartesian products
	// from variable-disconnected queries); 0 applies DefaultMaxSteps.
	// When the budget is exhausted the result is marked Truncated.
	MaxSteps int
	// MaxRows bounds distinct-answer tracking when the caller sets no
	// limit (or a larger one): the dedup set and the materialized rows
	// both stop growing there, the result is marked Truncated, and
	// Stats.TruncatedBy says why. 0 applies DefaultMaxRows. It exists so
	// a degenerate unlimited query cannot grow memory without bound.
	MaxRows int

	pool sync.Pool // *execState
}

// DefaultMaxSteps is the per-query join-iteration budget.
const DefaultMaxSteps = 20_000_000

// DefaultMaxRows is the per-query distinct-answer cap when no limit is
// given — generous (an interactive caller asks for far less; see
// internal/server's MaxLimit) but finite.
const DefaultMaxRows = 1_000_000

// New returns an engine over st.
func New(st *store.Store) *Engine { return &Engine{st: st} }

// TruncReason says which bound cut an evaluation short.
type TruncReason string

const (
	// TruncNone: the answer set is complete.
	TruncNone TruncReason = ""
	// TruncLimit: the caller's row limit was reached.
	TruncLimit TruncReason = "limit"
	// TruncMaxRows: the engine's MaxRows distinct-answer cap was reached.
	TruncMaxRows TruncReason = "max_rows"
	// TruncBudget: the MaxSteps join-iteration budget ran out.
	TruncBudget TruncReason = "step_budget"
)

// ExecStats reports how an evaluation went: the join work spent, the
// fully joined bindings that reached projection, how many of those were
// duplicate answers, and why evaluation stopped early (if it did). The
// serving layer surfaces these per response and as counters.
type ExecStats struct {
	// JoinIterations is the number of triples the join cursors yielded
	// across all steps (the MaxSteps budget counts these).
	JoinIterations int64
	// RowsExamined counts fully joined bindings reaching the
	// filter/projection tail.
	RowsExamined int64
	// RowsDeduped counts examined rows rejected as duplicate answers.
	RowsDeduped int64
	// TruncatedBy is the bound that stopped evaluation (empty: none).
	TruncatedBy TruncReason
}

// ResultSet holds the answers to a conjunctive query.
type ResultSet struct {
	// Vars are the distinguished variables, in query order.
	Vars []string
	// Rows holds one term per variable per answer, deduplicated.
	Rows [][]rdf.Term
	// Truncated is true when evaluation stopped at a row limit.
	Truncated bool
	// Stats holds the evaluation work counters (zero for results from
	// the preserved reference implementation).
	Stats ExecStats
}

// Len returns the number of answers.
func (r *ResultSet) Len() int { return len(r.Rows) }

// String renders a compact table of the answers.
func (r *ResultSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(r.Vars, "\t"))
	for _, row := range r.Rows {
		for i, t := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			if t.IsLiteral() {
				b.WriteString(t.Value)
			} else {
				b.WriteString(t.LocalName())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pattern is a compiled query atom: constants resolved to dictionary IDs,
// variables to dense variable slots.
type pattern struct {
	s, p, o  store.ID // 0 (Wildcard) when the position is a variable
	sv, ov   int      // variable slot, -1 when constant
	numConst int
}

// stepSpec is one join step fully resolved against the plan: because the
// join order is fixed before execution, whether each variable position is
// already bound when the step runs is static, so the inner loop carries
// no dynamic bound-flag bookkeeping at all.
type stepSpec struct {
	p      store.ID // predicate (always constant)
	s, o   store.ID // constant subject/object (0 when variable)
	sv, ov int      // variable slots (-1 when constant)
	sBound bool     // subject is a variable bound by an earlier step
	oBound bool     // object is a variable bound by an earlier step
	bindS  bool     // this step binds the subject variable
	bindO  bool     // this step binds the object variable
	// sameVar marks p(x,x) with x unbound at entry: rows must have
	// S == O, and the one variable binds once.
	sameVar bool
}

// cursor is one step's position in its range view. When a delta overlay
// is present, dview holds the delta rows for the same pattern and the
// advance loop two-way-merges both views by the ordering's comparator,
// reproducing exactly the row order a merged store would yield. With no
// delta, dview is empty and the merge degenerates to the base view with
// one predictable branch per row.
type cursor struct {
	view  store.View
	pos   int
	dview store.View
	dpos  int
	// cmpSO selects the merge comparator: true compares (S,O) — the SPO
	// ordering with the step's constant predicate equal on both sides —
	// false compares (O,S), which covers both POS and OSP.
	cmpSO bool
}

// slotFilter is a query filter compiled to a variable slot.
type slotFilter struct {
	slot int
	f    query.Filter
}

// execState is the pooled scratch memory of one evaluation: compiled
// patterns, plan, step specs, the binding array, the cursor stack, the
// dedup set, and the projection key buffer. Everything is grown once and
// recycled, so a warm engine's steady-state execute path allocates only
// the surviving answer rows.
type execState struct {
	pats    []pattern
	slots   map[string]int
	metas   []PatternMeta
	specs   []stepSpec
	binding []store.ID
	bound   []bool
	cursors []cursor
	proj    []int
	filters []slotFilter
	key     []store.ID
	seen    IDSet

	// delta is the per-call read overlay (nil in the common sealed-engine
	// case). It is cleared before the state returns to the pool so the
	// pool never pins a superseded snapshot.
	delta *store.DeltaSnap
}

func (e *Engine) getState() *execState {
	if v := e.pool.Get(); v != nil {
		return v.(*execState)
	}
	return &execState{slots: make(map[string]int)}
}

func (e *Engine) putState(st *execState) {
	st.delta = nil
	e.pool.Put(st)
}

// lookupTerm resolves a constant against the base dictionary, falling
// back to the delta's extension dictionary when an overlay is present.
func (e *Engine) lookupTerm(stt *execState, t rdf.Term) (store.ID, bool) {
	if id, ok := e.st.Lookup(t); ok {
		return id, ok
	}
	if stt.delta != nil {
		return stt.delta.Lookup(t)
	}
	return 0, false
}

// termOf resolves an ID to its term: extension IDs through the delta,
// everything else through the base dictionary.
func (e *Engine) termOf(stt *execState, id store.ID) rdf.Term {
	if stt.delta != nil {
		if t, ok := stt.delta.ExtTerm(id); ok {
			return t
		}
	}
	return e.st.Term(id)
}

// Execute evaluates q and returns all answers.
func (e *Engine) Execute(q *query.ConjunctiveQuery) (*ResultSet, error) {
	return e.ExecuteLimit(q, 0)
}

// ExecuteContext evaluates q under a context; see ExecuteLimitContext.
func (e *Engine) ExecuteContext(ctx context.Context, q *query.ConjunctiveQuery) (*ResultSet, error) {
	return e.ExecuteLimitContext(ctx, q, 0)
}

// compile resolves a query's atoms to dictionary-encoded patterns and
// variable slots. empty reports that some constant is absent from the
// dictionary, making the query trivially unsatisfiable. The patterns land
// in stt.pats and the slot map in stt.slots, both reused across calls.
func (e *Engine) compileInto(stt *execState, q *query.ConjunctiveQuery) (empty bool, err error) {
	if len(q.Atoms) == 0 {
		return false, fmt.Errorf("exec: query has no atoms")
	}
	clear(stt.slots)
	slotOf := func(a query.Arg) int {
		if !a.IsVar() {
			return -1
		}
		s, ok := stt.slots[a.Var]
		if !ok {
			s = len(stt.slots)
			stt.slots[a.Var] = s
		}
		return s
	}
	stt.pats = stt.pats[:0]
	for _, at := range q.Atoms {
		p := pattern{sv: slotOf(at.S), ov: slotOf(at.O)}
		pid, ok := e.lookupTerm(stt, at.Pred)
		if !ok {
			return true, nil // predicate absent from the data
		}
		p.p = pid
		p.numConst = 1
		if p.sv < 0 {
			sid, ok := e.lookupTerm(stt, at.S.Term)
			if !ok {
				return true, nil
			}
			p.s = sid
			p.numConst++
		}
		if p.ov < 0 {
			oid, ok := e.lookupTerm(stt, at.O.Term)
			if !ok {
				return true, nil
			}
			p.o = oid
			p.numConst++
		}
		stt.pats = append(stt.pats, p)
	}
	return false, nil
}

// compile is the allocating convenience wrapper around compileInto used
// by Explain and the preserved reference implementation.
func (e *Engine) compile(q *query.ConjunctiveQuery) (pats []pattern, slots map[string]int, empty bool, err error) {
	stt := &execState{slots: map[string]int{}}
	empty, err = e.compileInto(stt, q)
	return stt.pats, stt.slots, empty, err
}

// ExecuteLimit evaluates q, stopping once limit distinct answers exist
// (limit ≤ 0 means no limit). This is the "process queries until at least
// 10 answers are found" operation of the Fig. 5 experiment.
func (e *Engine) ExecuteLimit(q *query.ConjunctiveQuery, limit int) (*ResultSet, error) {
	return e.ExecuteLimitContext(context.Background(), q, limit)
}

// ctxCheckInterval is how many join iterations go by between context
// polls inside the join loop.
const ctxCheckInterval = 8192

// ExecuteLimitContext is ExecuteLimit under a context: the join loop
// polls ctx every ctxCheckInterval iterations and returns ctx.Err() when
// the context is cancelled or its deadline passes, so a slow query stops
// burning CPU promptly instead of running to completion.
func (e *Engine) ExecuteLimitContext(ctx context.Context, q *query.ConjunctiveQuery, limit int) (*ResultSet, error) {
	return e.ExecuteLimitContextDelta(ctx, q, limit, nil)
}

// deltaRowFirst decides, during a two-view merge, whether the delta row
// precedes the base row in the step's ordering. cmpSO compares (S,O)
// (the SPO ordering with the predicate constant); otherwise (O,S)
// covers both POS and OSP.
func deltaRowFirst(cmpSO bool, bs, bo, ds, do store.ID) bool {
	if cmpSO {
		return ds < bs || (ds == bs && do < bo)
	}
	return do < bo || (do == bo && ds < bs)
}

// ExecuteLimitContextDelta is ExecuteLimitContext with a live-ingestion
// read overlay: the evaluation sees base ∪ delta as one triple set, row
// streams merged per ordering, and answers are bit-identical to
// evaluating against store.MergeDelta(base, delta). A nil or empty
// delta adds no heap allocations to the sealed-engine path.
func (e *Engine) ExecuteLimitContextDelta(ctx context.Context, q *query.ConjunctiveQuery, limit int, delta *store.DeltaSnap) (*ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stt := e.getState()
	defer e.putState(stt)
	if delta != nil && !delta.Empty() {
		stt.delta = delta
	}

	_, planSpan := trace.StartSpan(ctx, "plan")
	empty, err := e.compileInto(stt, q)
	if err != nil {
		planSpan.End()
		return nil, err
	}
	if empty {
		planSpan.End()
		return emptyResult(q), nil
	}

	dist := q.Distinguished
	if len(dist) == 0 {
		dist = q.Vars()
	}
	stt.proj = stt.proj[:0]
	for _, v := range dist {
		s, ok := stt.slots[v]
		if !ok {
			planSpan.End()
			return nil, fmt.Errorf("exec: distinguished variable ?%s does not occur in the query", v)
		}
		stt.proj = append(stt.proj, s)
	}

	stt.filters = stt.filters[:0]
	for _, f := range q.Filters {
		s, ok := stt.slots[f.Var]
		if !ok {
			planSpan.End()
			return nil, fmt.Errorf("exec: filter variable ?%s does not occur in the query", f.Var)
		}
		stt.filters = append(stt.filters, slotFilter{slot: s, f: f})
	}

	order := e.planOrderInto(stt)
	stt.compileSteps(order)
	planSpan.End()

	maxRows := e.MaxRows
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	rs := &ResultSet{Vars: dist}
	jctx, joinSpan := trace.StartSpan(ctx, "join")
	err = e.run(jctx, stt, rs, limit, maxRows)
	joinSpan.End()
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// compileSteps resolves the ordered patterns into static step specs: with
// the plan fixed, which positions are bound at each step is known before
// the first row is read.
func (stt *execState) compileSteps(order []int) {
	stt.specs = stt.specs[:0]
	stt.binding = grow(stt.binding, len(stt.slots))
	stt.bound = growBool(stt.bound, len(stt.slots))
	for i := range stt.bound {
		stt.bound[i] = false
	}
	for _, idx := range order {
		p := stt.pats[idx]
		sp := stepSpec{p: p.p, s: p.s, o: p.o, sv: p.sv, ov: p.ov}
		sp.sBound = p.sv >= 0 && stt.bound[p.sv]
		sp.oBound = p.ov >= 0 && stt.bound[p.ov]
		sp.sameVar = p.sv >= 0 && p.ov == p.sv && !sp.sBound
		sp.bindS = p.sv >= 0 && !sp.sBound && !sp.sameVar
		sp.bindO = p.ov >= 0 && !sp.oBound && p.ov != p.sv
		if p.sv >= 0 {
			stt.bound[p.sv] = true
		}
		if p.ov >= 0 {
			stt.bound[p.ov] = true
		}
		stt.specs = append(stt.specs, sp)
	}
	if cap(stt.cursors) < len(stt.specs) {
		stt.cursors = make([]cursor, len(stt.specs))
	}
	stt.cursors = stt.cursors[:len(stt.specs)]
}

// openCursor positions step depth's cursor at the start of its range,
// with bound variables substituted from the current binding. With a
// delta overlay, the delta's matching rows open alongside in the same
// ordering; Store.Range tolerates extension IDs (they resolve past its
// offset tables to the empty range), so a binding produced by a delta
// row narrows the base view to nothing and the overlay serves it alone.
func (e *Engine) openCursor(stt *execState, depth int) {
	sp := &stt.specs[depth]
	s, o := sp.s, sp.o
	if sp.sBound {
		s = stt.binding[sp.sv]
	}
	if sp.oBound {
		o = stt.binding[sp.ov]
	}
	cur := &stt.cursors[depth]
	*cur = cursor{view: e.st.Range(s, sp.p, o)}
	if stt.delta != nil {
		cur.dview = stt.delta.Range(s, sp.p, o)
		// The comparator mirrors Range's ordering selection: S bound (and
		// not the S+O-no-P case) → SPO, i.e. compare (S,O); every other
		// shape sorts by (O,S) — POS compares O then S with P constant,
		// OSP compares O then S directly.
		cur.cmpSO = s != store.Wildcard && !(o != store.Wildcard && sp.p == store.Wildcard)
	}
}

// run is the iterative join machine: an explicit cursor stack replaces
// the recursive walk, each frame advancing its zero-allocation range view
// and descending on a successful binding. Answers are deduplicated in ID
// space and materialized to terms only when new.
func (e *Engine) run(ctx context.Context, stt *execState, rs *ResultSet, limit, maxRows int) error {
	budget := int64(e.MaxSteps)
	if e.MaxSteps <= 0 {
		budget = DefaultMaxSteps
	}
	ctxCountdown := ctxCheckInterval

	stt.seen.Reset(len(stt.proj))
	binding := stt.binding
	last := len(stt.specs) - 1
	depth := 0
	e.openCursor(stt, 0)

	for depth >= 0 {
		cur := &stt.cursors[depth]
		sp := &stt.specs[depth]
		// Advance to the next row of this step that extends the binding.
		// The row stream is the base view with the delta view merged in by
		// the ordering's comparator; an empty delta view reduces this to
		// the plain base iteration.
		advanced := false
		for cur.pos < len(cur.view.S) || cur.dpos < len(cur.dview.S) {
			var rowS, rowO store.ID
			switch {
			case cur.dpos >= len(cur.dview.S):
				rowS, rowO = cur.view.S[cur.pos], cur.view.O[cur.pos]
				cur.pos++
			case cur.pos >= len(cur.view.S):
				rowS, rowO = cur.dview.S[cur.dpos], cur.dview.O[cur.dpos]
				cur.dpos++
			default:
				bs, bo := cur.view.S[cur.pos], cur.view.O[cur.pos]
				ds, do := cur.dview.S[cur.dpos], cur.dview.O[cur.dpos]
				if deltaRowFirst(cur.cmpSO, bs, bo, ds, do) {
					rowS, rowO = ds, do
					cur.dpos++
				} else {
					rowS, rowO = bs, bo
					cur.pos++
				}
			}
			rs.Stats.JoinIterations++
			budget--
			if budget < 0 {
				rs.Truncated = true
				rs.Stats.TruncatedBy = TruncBudget
				return nil
			}
			ctxCountdown--
			if ctxCountdown <= 0 {
				ctxCountdown = ctxCheckInterval
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if sp.sameVar {
				if rowS != rowO {
					continue
				}
				binding[sp.sv] = rowS
			} else {
				if sp.bindS {
					binding[sp.sv] = rowS
				}
				if sp.bindO {
					binding[sp.ov] = rowO
				}
			}
			advanced = true
			break
		}
		if !advanced {
			depth--
			continue
		}
		if depth < last {
			depth++
			e.openCursor(stt, depth)
			continue
		}

		// A fully joined binding: filter, deduplicate in ID space,
		// materialize only if new.
		rs.Stats.RowsExamined++
		ok := true
		for _, sf := range stt.filters {
			t := e.termOf(stt, binding[sf.slot])
			if !t.IsLiteral() || !sf.f.Eval(t.Value) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		stt.key = stt.key[:0]
		for _, s := range stt.proj {
			stt.key = append(stt.key, binding[s])
		}
		if !stt.seen.Insert(stt.key) {
			rs.Stats.RowsDeduped++
			continue
		}
		row := make([]rdf.Term, len(stt.proj))
		for i, s := range stt.proj {
			row[i] = e.termOf(stt, binding[s])
		}
		rs.Rows = append(rs.Rows, row)
		if limit > 0 && len(rs.Rows) >= limit {
			rs.Truncated = true
			rs.Stats.TruncatedBy = TruncLimit
			return nil
		}
		if len(rs.Rows) >= maxRows {
			rs.Truncated = true
			rs.Stats.TruncatedBy = TruncMaxRows
			return nil
		}
	}
	return nil
}

func grow(s []store.ID, n int) []store.ID {
	if cap(s) < n {
		return make([]store.ID, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func emptyResult(q *query.ConjunctiveQuery) *ResultSet {
	dist := q.Distinguished
	if len(dist) == 0 {
		dist = q.Vars()
	}
	return &ResultSet{Vars: dist}
}

// metasOf projects compiled patterns onto the shared planner's shape;
// counts are exact constant-prefix match counts from the store.
func (e *Engine) metasOf(pats []pattern) []PatternMeta {
	metas := make([]PatternMeta, len(pats))
	for i, p := range pats {
		metas[i] = PatternMeta{SV: p.sv, OV: p.ov, Count: e.st.Count(p.s, p.p, p.o)}
	}
	return metas
}

// planOrder orders patterns with the shared greedy planner.
func (e *Engine) planOrder(pats []pattern) []int {
	return GreedyOrder(e.metasOf(pats))
}

// planOrderInto is planOrder with the metas buffer pooled in stt. The
// order itself comes from the same shared GreedyOrder the cluster
// coordinator plans with.
func (e *Engine) planOrderInto(stt *execState) []int {
	stt.metas = stt.metas[:0]
	for _, p := range stt.pats {
		n := e.st.Count(p.s, p.p, p.o)
		if stt.delta != nil {
			n += stt.delta.Count(p.s, p.p, p.o)
		}
		stt.metas = append(stt.metas, PatternMeta{SV: p.sv, OV: p.ov, Count: n})
	}
	return GreedyOrder(stt.metas)
}

// SortRows orders the rows lexicographically (by term comparison), useful
// for deterministic output in tools and tests.
func (r *ResultSet) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		for k := range r.Rows[i] {
			if c := r.Rows[i][k].Compare(r.Rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
