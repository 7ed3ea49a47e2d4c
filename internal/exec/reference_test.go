package exec

// The preserved reference implementation of conjunctive-query evaluation:
// the recursive, closure-based nested-loop join exec shipped with before
// the iterative pooled join core replaced it. It is kept as the
// golden-equivalence oracle: the golden tests pin the optimized
// executor's rows bit-for-bit against this code on the DBLP and LUBM
// workloads.
//
// Do not optimize this file. Its value is that it does not change.
//
// One deliberate deviation from the code it preserves: the shipped
// walk's repeated-variable check for p(x,x) atoms was dead code — the
// subject branch marked the slot bound before the object branch tested
// it, so such patterns silently ignored the object component. The
// reference enforces S == O (Definition 3 semantics), as the pooled
// executor does.

import (
	"context"
	"fmt"

	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// ReferenceExecuteLimit evaluates q with the preserved reference
// implementation; see ReferenceExecuteLimitContext.
func (e *Engine) ReferenceExecuteLimit(q *query.ConjunctiveQuery, limit int) (*ResultSet, error) {
	return e.ReferenceExecuteLimitContext(context.Background(), q, limit)
}

// ReferenceExecuteLimitContext is the pre-rewrite ExecuteLimitContext,
// verbatim: a recursive nested-loop join over store iterators with a
// string-keyed dedup map and eager row materialization. Same plan (the
// shared greedy planner), same join-iteration budget, same context
// polling cadence — only the machinery differs. Its ResultSet carries no
// execution Stats.
func (e *Engine) ReferenceExecuteLimitContext(ctx context.Context, q *query.ConjunctiveQuery, limit int) (*ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pats, slots, empty, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	if empty {
		return emptyResult(q), nil
	}

	dist := q.Distinguished
	if len(dist) == 0 {
		dist = q.Vars()
	}
	projSlots := make([]int, 0, len(dist))
	for _, v := range dist {
		s, ok := slots[v]
		if !ok {
			return nil, fmt.Errorf("exec: distinguished variable ?%s does not occur in the query", v)
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
			return nil, fmt.Errorf("exec: filter variable ?%s does not occur in the query", f.Var)
		}
		filters = append(filters, slotFilter{slot: s, f: f})
	}

	rs := &ResultSet{Vars: dist}
	binding := make([]store.ID, len(slots))
	bound := make([]bool, len(slots))
	seen := map[string]bool{}
	order := e.planOrder(pats)
	budget := e.MaxSteps
	if budget <= 0 {
		budget = DefaultMaxSteps
	}
	ctxCountdown := ctxCheckInterval
	var ctxErr error

	var walk func(step int) bool // returns false to stop early
	walk = func(step int) bool {
		if step == len(order) {
			// Apply filters: the bound term must be a literal whose
			// numeric value satisfies the comparison.
			for _, sf := range filters {
				t := e.st.Term(binding[sf.slot])
				if !t.IsLiteral() || !sf.f.Eval(t.Value) {
					return true // row rejected; keep searching
				}
			}
			// Project and deduplicate.
			key := make([]byte, 0, 4*len(projSlots))
			for _, s := range projSlots {
				id := binding[s]
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			k := string(key)
			if seen[k] {
				return true
			}
			seen[k] = true
			row := make([]rdf.Term, len(projSlots))
			for i, s := range projSlots {
				row[i] = e.st.Term(binding[s])
			}
			rs.Rows = append(rs.Rows, row)
			if limit > 0 && len(rs.Rows) >= limit {
				rs.Truncated = true
				return false
			}
			return true
		}
		p := pats[order[step]]
		sp, op := p.s, p.o
		if p.sv >= 0 && bound[p.sv] {
			sp = binding[p.sv]
		}
		if p.ov >= 0 && bound[p.ov] {
			op = binding[p.ov]
		}
		it := e.st.Match(sp, p.p, op)
		for it.Next() {
			budget--
			if budget < 0 {
				rs.Truncated = true
				return false
			}
			ctxCountdown--
			if ctxCountdown <= 0 {
				ctxCountdown = ctxCheckInterval
				if ctxErr = ctx.Err(); ctxErr != nil {
					return false
				}
			}
			t := it.Triple()
			var newS, newO bool
			if p.sv >= 0 && !bound[p.sv] {
				binding[p.sv] = t.S
				bound[p.sv] = true
				newS = true
			}
			// Repeated variable within the atom (p(x,x)) newly bound from
			// the subject: the object must equal it.
			if p.ov >= 0 && p.ov == p.sv && newS {
				if t.O != binding[p.sv] {
					bound[p.sv] = false
					continue
				}
			} else if p.ov >= 0 && !bound[p.ov] {
				binding[p.ov] = t.O
				bound[p.ov] = true
				newO = true
			}
			cont := walk(step + 1)
			if newS {
				bound[p.sv] = false
			}
			if newO {
				bound[p.ov] = false
			}
			if !cont {
				return false
			}
		}
		return true
	}
	walk(0)
	if ctxErr != nil {
		return nil, ctxErr
	}
	return rs, nil
}
