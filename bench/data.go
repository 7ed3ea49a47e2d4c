package main

import (
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// dataset names one generated input graph.
type dataset struct {
	Kind  string // "dblp" | "tap"
	Scale int
}

// The two data shapes the workloads span (issue 11): DBLP is value-heavy
// with a tiny summary graph, TAP is schema-rich with a tiny lexicon.
var (
	dblpFull  = dataset{"dblp", 20000} // ≈218 k triples, 35-element summary
	tapFull   = dataset{"tap", 200}    // ≈34 k triples, 251-element summary
	dblpSmoke = dataset{"dblp", 400}
	tapSmoke  = dataset{"tap", 8}
)

// generate produces the dataset's triples; the same seed gives the same
// triples.
func (d dataset) generate(seed int64) []rdf.Triple {
	if d.Kind == "tap" {
		return datagen.TAPTriples(datagen.TAPConfig{InstancesPerClass: d.Scale, Seed: seed})
	}
	return datagen.DBLPTriples(datagen.DBLPConfig{Publications: d.Scale, Seed: seed})
}

// writeNTriples writes the input file buildindex reads.
func writeNTriples(path string, ts []rdf.Triple) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return rdf.WriteNTriples(f, ts)
}

// relation is one entity-to-entity edge of the data.
type relation struct{ S, Pred, O string }

// corpus indexes the generated triples by subject, so the workload
// generators can draw keywords and constants that exist in the data.
type corpus struct {
	NS       string
	Triples  []rdf.Triple
	Attrs    map[string]map[string]string // subject → predicate local name → literal
	Class    map[string]string            // subject → most specific class (last declared)
	Super    map[string]string            // class → superclass
	RelsBy   map[string][]relation        // subject → its outgoing relations
	RelsOf   map[string][]relation        // predicate → its relations
	Preds    []string                     // relation predicates, sorted
	Subjects []string                     // entities with a title (DBLP publications), in order
}

func buildCorpus(kind string, ts []rdf.Triple) *corpus {
	c := &corpus{
		NS:      datagen.DBLPNS,
		Triples: ts,
		Attrs:   map[string]map[string]string{},
		Class:   map[string]string{},
		Super:   map[string]string{},
		RelsBy:  map[string][]relation{},
		RelsOf:  map[string][]relation{},
	}
	if kind == "tap" {
		c.NS = datagen.TAPNS
	}
	for _, t := range ts {
		s, p := t.S.Value, t.P.Value
		switch {
		case p == rdf.RDFType:
			c.Class[s] = t.O.Value
		case p == rdf.RDFSSubClass:
			c.Super[s] = t.O.Value
		case t.O.IsLiteral():
			m := c.Attrs[s]
			if m == nil {
				m = map[string]string{}
				c.Attrs[s] = m
			}
			local := c.local(p)
			if local == "title" {
				c.Subjects = append(c.Subjects, s)
			}
			m[local] = t.O.Value
		default:
			r := relation{s, p, t.O.Value}
			c.RelsBy[s] = append(c.RelsBy[s], r)
			if c.RelsOf[p] == nil {
				c.Preds = append(c.Preds, p)
			}
			c.RelsOf[p] = append(c.RelsOf[p], r)
		}
	}
	sort.Strings(c.Preds)
	return c
}

// local strips the dataset namespace off an IRI.
func (c *corpus) local(iri string) string { return strings.TrimPrefix(iri, c.NS) }

// label is the keyword a user would type for a class or relation IRI:
// its local name split at camelCase boundaries, as the keyword index
// labels it.
func (c *corpus) label(iri string) string {
	return strings.Join(analysis.SplitWords(c.local(iri)), " ")
}

// contentWords returns the lower-cased words of a literal that survive
// the analyzer (stopwords dropped), minus any word in skip.
func contentWords(literal string, skip ...string) []string {
	var out []string
next:
	for _, w := range analysis.SplitWords(literal) {
		if analysis.IsStopword(w) || len(w) < 2 {
			continue
		}
		for _, s := range skip {
			if w == s {
				continue next
			}
		}
		out = append(out, w)
	}
	return out
}
