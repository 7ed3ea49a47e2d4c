package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/rdf"
)

// batchTriples is the size of one ingest batch: four new publications of
// five triples each (type, title, year, author, venue).
const batchTriples = 20

// Live-backend flags of the mixed workload, stated because they set what
// a write costs: every ack waits for an fsync, and the delta merges into
// the indexes every 4000 triples (200 batches).
var liveFlags = []string{"-fsync", "always", "-epoch-max-delta", "4000"}

// ingestStream generates the writer's batches: new publications shaped
// like the base data — a title drawn from an existing one (so ingested
// words touch cached searches), a year, an existing author and venue —
// under subjects no base triple uses, so every triple is new.
type ingestStream struct {
	mu   sync.Mutex
	c    *corpus
	rng  *rand.Rand
	seed int64
	ops  []*op
	// triples[i] are batch i's triples and ntBytes[i] their size as
	// N-Triples text — the user data the WAL's size is compared with.
	triples [][]rdf.Triple
	ntBytes []int
}

func newIngestStream(c *corpus, seed int64) *ingestStream {
	return &ingestStream{c: c, rng: rand.New(rand.NewSource(seed + 4)), seed: seed}
}

type wireTerm struct {
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

type wireTriple struct {
	S wireTerm `json:"s"`
	P wireTerm `json:"p"`
	O wireTerm `json:"o"`
}

func toWire(t rdf.Term) wireTerm {
	if t.IsLiteral() {
		return wireTerm{"literal", t.Value}
	}
	return wireTerm{"iri", t.Value}
}

func (s *ingestStream) at(i int) *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	for len(s.ops) <= i {
		var ts []rdf.Triple
		for len(ts) < batchTriples {
			like := c.Subjects[s.rng.Intn(len(c.Subjects))]
			var author, venue string
			for _, r := range c.RelsBy[like] {
				switch c.local(r.Pred) {
				case "author":
					author = r.O
				case "publishedIn":
					venue = r.O
				}
			}
			subj := rdf.NewIRI(fmt.Sprintf("%sing%d_%d", c.NS, s.seed, len(s.ops)*batchTriples+len(ts)))
			pred := func(local string) rdf.Term { return rdf.NewIRI(c.NS + local) }
			ts = append(ts,
				rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(c.NS + "Publication")},
				rdf.Triple{S: subj, P: pred("title"), O: rdf.NewLiteral(c.Attrs[like]["title"])},
				rdf.Triple{S: subj, P: pred("year"), O: rdf.NewLiteral(c.Attrs[like]["year"])},
				rdf.Triple{S: subj, P: pred("author"), O: rdf.NewIRI(author)},
				rdf.Triple{S: subj, P: pred("publishedIn"), O: rdf.NewIRI(venue)},
			)
		}
		wire := make([]wireTriple, len(ts))
		for j, t := range ts {
			wire[j] = wireTriple{toWire(t.S), toWire(t.P), toWire(t.O)}
		}
		var nt bytes.Buffer
		_ = rdf.WriteNTriples(&nt, ts)                           // bytes.Buffer: cannot fail
		body, _ := json.Marshal(map[string]any{"triples": wire}) // plain data: cannot fail
		s.ops = append(s.ops, &op{Kind: opIngest, Body: body, Batch: len(s.ops)})
		s.triples = append(s.triples, ts)
		s.ntBytes = append(s.ntBytes, nt.Len())
	}
	return s.ops[i]
}

// replayedRE matches serverd's boot line, the only place the number of
// WAL batches replayed on recovery is reported.
var replayedRE = regexp.MustCompile(`replayed (\d+) batches`)

// replayedBatches reads the recovery boot's log.
func replayedBatches(logPath string) float64 {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0
	}
	m := replayedRE.FindSubmatch(b)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return float64(n)
}

// probeTriple asks the recovered server for one acknowledged triple:
// <s> <p> ?o must list the object.
func probeTriple(c *client, t rdf.Triple) error {
	o := inlineOp([]atomSpec{{iri(t.S.Value), iri(t.P.Value), vr("o")}}, inlineLimit)
	req, err := c.http.Post(c.base+o.path(), "application/json", bytes.NewReader(o.Body))
	if err != nil {
		return err
	}
	defer req.Body.Close()
	var er struct {
		Rows [][]wireTerm `json:"rows"`
	}
	if err := json.NewDecoder(req.Body).Decode(&er); err != nil {
		return err
	}
	for _, row := range er.Rows {
		if len(row) == 1 && row[0].Value == t.O.Value {
			return nil
		}
	}
	return fmt.Errorf("acknowledged triple %v is not in the recovered store", t)
}

// mergedReference builds an engine over the base data plus every
// acknowledged batch, from scratch — what the recovered server must be
// equivalent to.
func mergedReference(base []rdf.Triple, acked [][]rdf.Triple) *reference {
	e := engine.New(engine.Config{})
	e.AddTriples(base)
	for _, ts := range acked {
		e.AddTriples(ts)
	}
	e.Seal()
	return &reference{eng: e, memo: map[*op]uint64{}}
}
