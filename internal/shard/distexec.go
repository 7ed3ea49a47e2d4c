package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/trace"
)

// The distributed execution engine: a breadth-first bind-join that keeps
// the single engine's greedy join order (selected at the coordinator from
// scatter-summed exact counts — the partitions are disjoint, so sums are
// the single-store counts) and scatters each step to all shards with the
// current bindings. Because triples are subject-partitioned with no
// replication in the shards' data stores, the extensions different shards
// produce for one step are disjoint, and the union over shards enumerates
// exactly the bindings the single engine's depth-first walk visits. The
// answer set is therefore identical; rows are returned in canonical
// (sorted) order rather than discovery order.
//
// Memory layout mirrors the single engine's pooled join core: binding
// tables are flat []store.ID buffers (stride = variable count) reused
// across bind-join steps through a per-cluster pool, per-shard extension
// buffers persist across steps, and the coordinator's answer dedup runs
// in ID space through the same open-addressing exec.IDSet — no string
// keys, no per-row map traffic.

// dpattern is a compiled query atom in the coordinator's ID space:
// constants resolved against the global dictionary, variables assigned
// dense slots. It mirrors exec's compiled pattern.
type dpattern struct {
	s, p, o store.ID // Wildcard (0) when the position is a variable
	sv, ov  int      // variable slot, -1 when constant
}

// compile resolves a query's atoms against the coordinator dictionary,
// mirroring exec.Engine's compilation (including the empty-result
// shortcut for constants absent from the data).
func (c *Cluster) compile(q *query.ConjunctiveQuery) (pats []dpattern, slots map[string]int, empty bool, err error) {
	if len(q.Atoms) == 0 {
		return nil, nil, false, fmt.Errorf("shard: query has no atoms")
	}
	slots = map[string]int{}
	slotOf := func(a query.Arg) int {
		if !a.IsVar() {
			return -1
		}
		s, ok := slots[a.Var]
		if !ok {
			s = len(slots)
			slots[a.Var] = s
		}
		return s
	}
	pats = make([]dpattern, 0, len(q.Atoms))
	for _, at := range q.Atoms {
		p := dpattern{sv: slotOf(at.S), ov: slotOf(at.O)}
		pid, ok := c.dict.Lookup(at.Pred)
		if !ok {
			return nil, slots, true, nil
		}
		p.p = pid
		if p.sv < 0 {
			sid, ok := c.dict.Lookup(at.S.Term)
			if !ok {
				return nil, slots, true, nil
			}
			p.s = sid
		}
		if p.ov < 0 {
			oid, ok := c.dict.Lookup(at.O.Term)
			if !ok {
				return nil, slots, true, nil
			}
			p.o = oid
		}
		pats = append(pats, p)
	}
	return pats, slots, false, nil
}

// countAll is the coordinator's selectivity oracle: the exact global
// match count of a constant pattern, as the sum of the disjoint per-shard
// counts. A shard whose dictionary lacks one of the constants contributes
// zero without being consulted.
func (c *Cluster) countAll(s, p, o store.ID) int {
	total := 0
	for _, sh := range c.shards {
		ls, ok1 := sh.toLocal(s)
		lp, ok2 := sh.toLocal(p)
		lo, ok3 := sh.toLocal(o)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		total += sh.data.Count(ls, lp, lo)
	}
	return total
}

// metasOf projects compiled patterns onto the shared planner's shape
// (exec.GreedyOrder / exec.StepTier — the same code the single engine
// plans with), with counts from the scatter-sum oracle.
func (c *Cluster) metasOf(pats []dpattern) []exec.PatternMeta {
	metas := make([]exec.PatternMeta, len(pats))
	for i, p := range pats {
		metas[i] = exec.PatternMeta{SV: p.sv, OV: p.ov, Count: c.countAll(p.s, p.p, p.o)}
	}
	return metas
}

func (c *Cluster) planOrder(pats []dpattern) []int {
	return exec.GreedyOrder(c.metasOf(pats))
}

// ext is one shard's extension of one parent binding: the values (in
// global IDs) of the variables the step newly binds. parent is -1 for
// parent-independent steps (no previously bound variable in the pattern).
type ext struct {
	parent int32
	s, o   store.ID
}

// stepSpec precomputes how one join step touches the slot table.
type stepSpec struct {
	pat     dpattern
	sBound  bool // subject is a previously bound variable
	oBound  bool
	newS    bool // subject variable is bound by this step
	newO    bool // object variable is bound by this step (and differs from subject's)
	sameVar bool // p(x, x) with x unbound: enforce S == O, bind once
	cap     int  // per-shard result cap (0 = none): final-step limit pushdown
}

// bindTable is a flat binding table: nRows rows of stride IDs each
// (stride may be zero for all-constant queries, hence the explicit row
// count). The backing buffer is pooled and reused across steps.
type bindTable struct {
	rows   []store.ID
	stride int
	nRows  int
}

func (b *bindTable) row(i int) []store.ID {
	return b.rows[i*b.stride : (i+1)*b.stride]
}

// reset re-shapes the table for a new step, keeping buffer capacity.
func (b *bindTable) reset(stride int) {
	b.rows = b.rows[:0]
	b.stride = stride
	b.nRows = 0
}

// distScratch is the pooled working memory of one distributed execute:
// the two binding tables swapped across steps, the per-shard extension
// buffers, the existence-check keep mask, and the coordinator's dedup
// set with its key buffer.
type distScratch struct {
	cur, next bindTable
	exts      [][]ext
	useds     []int64
	capped    []bool
	errs      []error
	keep      []bool
	seen      exec.IDSet
	key       []store.ID
}

func (c *Cluster) getScratch() *distScratch {
	if v := c.scratch.Get(); v != nil {
		return v.(*distScratch)
	}
	return &distScratch{}
}

func (c *Cluster) putScratch(s *distScratch) {
	c.scratch.Put(s)
}

// ctxPollInterval matches exec's cancellation granularity.
const ctxPollInterval = 8192

// evalStep runs one join step against this shard's owned partition:
// constants and bound values are translated into the local dictionary,
// matches enumerated from the local indexes, and newly bound values
// translated back to global IDs. Extensions append into out (reused
// across steps by the caller). Returns the extensions, the number of
// join iterations spent, and whether the cap cut enumeration short.
func (sh *Shard) evalStep(ctx context.Context, spec stepSpec, parents *bindTable, out []ext) ([]ext, int64, bool, error) {
	p := spec.pat
	ls, okS := sh.toLocal(p.s)
	lp, okP := sh.toLocal(p.p)
	lo, okO := sh.toLocal(p.o)
	if !okS || !okP || !okO {
		return out, 0, false, nil // a constant is absent from this shard
	}
	var used int64
	poll := ctxPollInterval

	scan := func(parent int32, sp, op store.ID) (bool, error) {
		v := sh.data.Range(sp, lp, op)
		for i := 0; i < v.Len(); i++ {
			used++
			poll--
			if poll <= 0 {
				poll = ctxPollInterval
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			if spec.sameVar && v.S[i] != v.O[i] {
				continue
			}
			e := ext{parent: parent}
			if spec.newS || spec.sameVar {
				e.s = sh.local2global[v.S[i]]
			}
			if spec.newO {
				e.o = sh.local2global[v.O[i]]
			}
			out = append(out, e)
			if !spec.newS && !spec.newO && !spec.sameVar {
				// Pure existence check: the pattern is fully concrete, so
				// at most one triple can match — stop after it.
				return true, nil
			}
			if spec.cap > 0 && len(out) >= spec.cap {
				return false, nil // capped: enough rows for the limit
			}
		}
		return true, nil
	}

	if !spec.sBound && !spec.oBound {
		// Parent-independent step: enumerate once; the coordinator
		// cross-joins with the parents.
		_, err := scan(-1, ls, lo)
		return out, used, spec.cap > 0 && len(out) >= spec.cap, err
	}
	for pi := 0; pi < parents.nRows; pi++ {
		parent := parents.row(pi)
		sp, op := ls, lo
		if spec.sBound {
			v, ok := sh.toLocal(parent[p.sv])
			if !ok {
				continue // the bound value does not occur on this shard
			}
			sp = v
		}
		if spec.oBound {
			v, ok := sh.toLocal(parent[p.ov])
			if !ok {
				continue
			}
			op = v
		}
		cont, err := scan(int32(pi), sp, op)
		if err != nil {
			return out, used, false, err
		}
		if !cont && spec.cap > 0 && len(out) >= spec.cap {
			return out, used, true, nil
		}
	}
	return out, used, false, nil
}

// scatterStep fans one join step out to every shard concurrently and
// union-merges the extensions into the next binding table (swapped with
// the current one by the caller). Disjoint partitions guarantee the
// per-shard extension sets are disjoint, so the merge is pure
// concatenation (deterministically ordered by shard, then by local
// enumeration order). Each shard appends into its pooled extension
// buffer; context cancellation aborts the whole step.
func (c *Cluster) scatterStep(ctx context.Context, sc *distScratch, spec stepSpec) (int64, bool, error) {
	n := len(c.shards)
	if cap(sc.exts) < n {
		sc.exts = make([][]ext, n)
		sc.useds = make([]int64, n)
		sc.capped = make([]bool, n)
		sc.errs = make([]error, n)
	}
	sc.exts = sc.exts[:n]
	sc.useds = sc.useds[:n]
	sc.capped = sc.capped[:n]
	sc.errs = sc.errs[:n]
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			sctx, shSpan := trace.StartSpan(ctx, "shard_join")
			defer shSpan.End()
			sc.exts[i], sc.useds[i], sc.capped[i], sc.errs[i] = sh.evalStep(sctx, spec, &sc.cur, sc.exts[i][:0])
		}(i, sh)
	}
	wg.Wait()
	var used int64
	wasCapped := false
	for i := range c.shards {
		if sc.errs[i] != nil {
			return used, false, sc.errs[i]
		}
		used += sc.useds[i]
		wasCapped = wasCapped || sc.capped[i]
	}

	p := spec.pat
	newSlots := 0
	if spec.newS || spec.sameVar {
		newSlots++
	}
	if spec.newO {
		newSlots++
	}

	if newSlots == 0 {
		// Existence check: keep each surviving parent once, in order.
		if cap(sc.keep) < sc.cur.nRows {
			sc.keep = make([]bool, sc.cur.nRows)
		}
		sc.keep = sc.keep[:sc.cur.nRows]
		for i := range sc.keep {
			sc.keep[i] = false
		}
		for _, exts := range sc.exts {
			for _, e := range exts {
				if e.parent >= 0 {
					sc.keep[e.parent] = true
				} else {
					// Parent-independent existence: one hit keeps them all.
					for i := range sc.keep {
						sc.keep[i] = true
					}
				}
			}
		}
		sc.next.reset(sc.cur.stride)
		for i, k := range sc.keep {
			if k {
				sc.next.rows = append(sc.next.rows, sc.cur.row(i)...)
				sc.next.nRows++
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		return used, wasCapped, nil
	}

	extend := func(parent []store.ID, e ext) {
		at := len(sc.next.rows)
		sc.next.rows = append(sc.next.rows, parent...)
		row := sc.next.rows[at:]
		if spec.newS || spec.sameVar {
			row[p.sv] = e.s
		}
		if spec.newO {
			row[p.ov] = e.o
		}
		sc.next.nRows++
	}

	sc.next.reset(sc.cur.stride)
	if !spec.sBound && !spec.oBound {
		// Cross-join the shared extension list with every parent.
		for pi := 0; pi < sc.cur.nRows; pi++ {
			parent := sc.cur.row(pi)
			for _, exts := range sc.exts {
				for _, e := range exts {
					extend(parent, e)
				}
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		return used, wasCapped, nil
	}
	for _, exts := range sc.exts {
		for _, e := range exts {
			extend(sc.cur.row(int(e.parent)), e)
		}
	}
	sc.cur, sc.next = sc.next, sc.cur
	return used, wasCapped, nil
}

// ExecuteLimitContext evaluates a candidate as a distributed bind-join,
// stopping at limit distinct answers (limit ≤ 0: no limit, bounded by
// the MaxRows distinct-answer cap exactly like the single engine). The
// answer set equals the single engine's; rows are returned in canonical
// sorted order, with the same Truncated semantics and ExecStats reasons.
// The limit is pushed into the final join step when that is sound (no
// filters pending and the projection keeps every variable), and ctx is
// threaded into every shard call.
func (c *Cluster) ExecuteLimitContext(ctx context.Context, cand *engine.QueryCandidate, limit int) (*exec.ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := cand.Query
	_, planSpan := trace.StartSpan(ctx, "plan")
	pats, slots, empty, err := c.compile(q)
	if err != nil {
		planSpan.End()
		return nil, err
	}
	dist := q.Distinguished
	if len(dist) == 0 {
		dist = q.Vars()
	}
	if empty {
		planSpan.End()
		return &exec.ResultSet{Vars: dist}, nil
	}
	projSlots := make([]int, 0, len(dist))
	for _, v := range dist {
		s, ok := slots[v]
		if !ok {
			planSpan.End()
			return nil, fmt.Errorf("shard: distinguished variable ?%s does not occur in the query", v)
		}
		projSlots = append(projSlots, s)
	}
	type slotFilter struct {
		slot int
		f    query.Filter
	}
	var filters []slotFilter
	for _, f := range q.Filters {
		s, ok := slots[f.Var]
		if !ok {
			planSpan.End()
			return nil, fmt.Errorf("shard: filter variable ?%s does not occur in the query", f.Var)
		}
		filters = append(filters, slotFilter{slot: s, f: f})
	}

	order := c.planOrder(pats)
	planSpan.End()
	bound := make([]bool, len(slots))
	sc := c.getScratch()
	defer c.putScratch(sc)
	sc.cur.reset(len(slots))
	sc.cur.rows = append(sc.cur.rows, make([]store.ID, len(slots))...)
	sc.cur.nRows = 1
	budget := int64(exec.DefaultMaxSteps)
	if c.MaxSteps > 0 {
		budget = int64(c.MaxSteps)
	}
	maxRows := c.MaxRows
	if maxRows <= 0 {
		maxRows = c.cfg.MaxExecRows
	}
	if maxRows <= 0 {
		maxRows = exec.DefaultMaxRows
	}

	rs := &exec.ResultSet{Vars: dist}

	for stepIdx, pi := range order {
		p := pats[pi]
		spec := stepSpec{pat: p}
		spec.sBound = p.sv >= 0 && bound[p.sv]
		spec.oBound = p.ov >= 0 && bound[p.ov]
		spec.sameVar = p.sv >= 0 && p.ov == p.sv && !spec.sBound
		spec.newS = p.sv >= 0 && !spec.sBound && !spec.sameVar
		spec.newO = p.ov >= 0 && !spec.oBound && p.ov != p.sv
		if limit > 0 && stepIdx == len(order)-1 && len(filters) == 0 && len(projSlots) == len(slots) {
			spec.cap = limit
		}
		sctx, stepSpan := trace.StartSpan(ctx, "bind_join_step")
		used, capped, err := c.scatterStep(sctx, sc, spec)
		stepSpan.End()
		if err != nil {
			return nil, err
		}
		rs.Stats.JoinIterations += used
		budget -= used
		if capped {
			rs.Truncated = true
			rs.Stats.TruncatedBy = exec.TruncLimit
		}
		if p.sv >= 0 {
			bound[p.sv] = true
		}
		if p.ov >= 0 {
			bound[p.ov] = true
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sc.cur.nRows == 0 {
			break
		}
		if budget < 0 {
			rs.Truncated = true
			rs.Stats.TruncatedBy = exec.TruncBudget
			if stepIdx < len(order)-1 {
				// Join budget exhausted mid-plan: the binding table still
				// has unbound variables (ID 0 — not a term) and unapplied
				// join constraints, so no row in it is an answer. Discard
				// it; the single engine in the same regime also stops
				// early, emitting only the fully joined rows it happened
				// to reach first.
				sc.cur.nRows = 0
				sc.cur.rows = sc.cur.rows[:0]
			}
			break
		}
	}

	// Filter, project, deduplicate — at the coordinator, exactly as the
	// single engine does at the bottom of its walk, in ID space through
	// the same open-addressing set.
	sc.seen.Reset(len(projSlots))
rows:
	for i := 0; i < sc.cur.nRows; i++ {
		row := sc.cur.row(i)
		rs.Stats.RowsExamined++
		for _, sf := range filters {
			t := c.dict.Term(row[sf.slot])
			if !t.IsLiteral() || !sf.f.Eval(t.Value) {
				continue rows
			}
		}
		sc.key = sc.key[:0]
		for _, s := range projSlots {
			sc.key = append(sc.key, row[s])
		}
		if !sc.seen.Insert(sc.key) {
			rs.Stats.RowsDeduped++
			continue
		}
		out := make([]rdf.Term, len(projSlots))
		for j, s := range projSlots {
			out[j] = c.dict.Term(row[s])
		}
		rs.Rows = append(rs.Rows, out)
		if limit > 0 && len(rs.Rows) >= limit {
			rs.Truncated = true
			rs.Stats.TruncatedBy = exec.TruncLimit
			break
		}
		if len(rs.Rows) >= maxRows {
			rs.Truncated = true
			if rs.Stats.TruncatedBy == exec.TruncNone {
				rs.Stats.TruncatedBy = exec.TruncMaxRows
			}
			break
		}
	}
	rs.SortRows()
	return rs, nil
}

// Explain returns the evaluation plan the cluster would use — produced
// by the shared planner (exec.ExplainPlan), so the join order, tiers,
// and (scatter-summed, hence identical) selectivity estimates match the
// single engine's explain output exactly.
func (c *Cluster) Explain(cand *engine.QueryCandidate) (*exec.Plan, error) {
	q := cand.Query
	pats, _, empty, err := c.compile(q)
	if err != nil {
		return nil, err
	}
	if empty {
		return &exec.Plan{Empty: true}, nil
	}
	return exec.ExplainPlan(q, c.metasOf(pats)), nil
}
