package engine

import (
	"strconv"
	"strings"

	"repro/internal/query"
)

// FilterSpec is a parsed filter keyword (the Sec. IX filter-operator
// extension): "before 2005", "after 1998", "<= 10", "> 3.5", …. It is
// exported because the comparison cluster (internal/shard) parses
// filter keywords with exactly the same rules as the engine.
type FilterSpec struct {
	Op    query.FilterOp
	Value float64
}

// filterWords maps natural-language comparators to operators.
var filterWords = map[string]query.FilterOp{
	"before": query.OpLT,
	"until":  query.OpLE,
	"after":  query.OpGT,
	"since":  query.OpGE,
	"<":      query.OpLT,
	"<=":     query.OpLE,
	">":      query.OpGT,
	">=":     query.OpGE,
}

// ParseFilterKeyword recognizes a filter keyword: an operator word or
// symbol followed by a number ("before 2005", ">= 1998"), or a compact
// symbol form ("<2005").
func ParseFilterKeyword(kw string) (FilterSpec, bool) {
	s := strings.TrimSpace(strings.ToLower(kw))
	fields := strings.Fields(s)
	if len(fields) == 2 {
		if op, ok := filterWords[fields[0]]; ok {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return FilterSpec{Op: op, Value: v}, true
			}
		}
		return FilterSpec{}, false
	}
	if len(fields) == 1 {
		for _, sym := range []string{"<=", ">=", "<", ">"} {
			if strings.HasPrefix(s, sym) {
				if v, err := strconv.ParseFloat(strings.TrimSpace(s[len(sym):]), 64); err == nil {
					return FilterSpec{Op: filterWords[sym], Value: v}, true
				}
			}
		}
	}
	return FilterSpec{}, false
}
