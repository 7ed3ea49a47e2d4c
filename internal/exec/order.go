package exec

// The greedy join planner, factored out so the single engine and the
// benchmark's comparison cluster (internal/shard) run the *same* code:
// the cluster's plan-equivalence guarantee — identical join orders,
// tiers, and selectivity estimates — holds because both callers feed
// this planner, differing only in where the counts come from (one store
// vs. a scatter-sum over disjoint partitions).

// PatternMeta describes one compiled pattern to the planner: its
// variable slots (-1 = constant position) and the exact match count of
// its constant positions (the selectivity signal; variable bindings are
// unknown at planning time).
type PatternMeta struct {
	SV, OV int
	Count  int
}

// StepTier returns a pattern's execution tier given the variables bound
// so far:
//
//	tier 2 — every position bound (constant or previously bound variable):
//	         a pure existence check, essentially free;
//	tier 1 — at least one bound variable: an index probe whose per-binding
//	         fan-out is the average degree, far below any scan;
//	tier 0 — constants only: a scan of the constant-prefix range.
func StepTier(p PatternMeta, boundVar map[int]bool) int {
	positions := 1 // predicate
	bound := 1
	hasBoundVar := false
	for _, v := range [2]int{p.SV, p.OV} {
		positions++
		if v < 0 {
			bound++ // constant
		} else if boundVar[v] {
			bound++
			hasBoundVar = true
		}
	}
	switch {
	case bound == positions:
		return 2
	case hasBoundVar:
		return 1
	default:
		return 0
	}
}

// GreedyOrder orders patterns greedily by execution tier, breaking ties
// within a tier by the exact match count of the constant positions (most
// selective first). Deferring unconnected patterns to the end falls out
// naturally: they stay tier 0 until a shared variable binds.
func GreedyOrder(pats []PatternMeta) []int {
	n := len(pats)
	used := make([]bool, n)
	boundVar := map[int]bool{}
	out := make([]int, 0, n)
	for len(out) < n {
		best, bestScore := -1, int64(0)
		for i, p := range pats {
			if used[i] {
				continue
			}
			const weight = int64(1) << 40
			score := int64(StepTier(p, boundVar))*weight - int64(p.Count)
			if best == -1 || score > bestScore {
				best, bestScore = i, score
			}
		}
		p := pats[best]
		used[best] = true
		out = append(out, best)
		if p.SV >= 0 {
			boundVar[p.SV] = true
		}
		if p.OV >= 0 {
			boundVar[p.OV] = true
		}
	}
	return out
}
