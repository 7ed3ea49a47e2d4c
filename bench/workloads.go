package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	swbench "repro/internal/bench"
	"repro/internal/query"
	"repro/internal/rdf"
)

// workload is one traffic mix against one data shape. Everything that
// shapes the load is fixed here and never tuned at run time, so two
// commits always receive the same requests at the same rates.
type workload struct {
	Name string
	Why  string // one line: what it stresses and what it bypasses
	Data dataset
	// Smoke is the tiny dataset the -smoke run (and the test) uses.
	Smoke dataset
	// Live boots serverd with -snapshot + -wal (the ingest-capable
	// backend) instead of the sealed snapshot engine.
	Live bool
	// OpenRate is the open-loop request rate in requests/s: about half of
	// the closed-loop capacity measured on the commit that introduced the
	// benchmark. It is committed, not calibrated: a faster server shows as
	// lower latency at the same rate, not as a moving target.
	OpenRate float64
	// IngestRate is the open-loop write rate in 20-triple batches/s.
	IngestRate float64
	// LayerQueries is how many leading requests the in-process layers
	// pass replays. It is a count, not a time budget, so the counters it
	// reports repeat exactly for one seed.
	LayerQueries int
	// ShardQueries is how many of those also run through a 2-shard
	// cluster for the shard.* ratios.
	ShardQueries int
	// WarmHead sends the head of the stream once, untimed, before the
	// traced run's 1-client pass: the workload's steady state serves those
	// requests (the hot cycle, keywords+rank candidates) from a cache.
	WarmHead bool
	// CacheServed says the engine does no work for a steady-state request.
	CacheServed bool
	// Source builds the request stream for a seed.
	Source func(c *corpus, seed int64, ncands func([]string) int) opSource
}

// workloads lists the five traffic mixes of issue 11. Which layer
// dominates a search depends on the data shape, so the two search-miss
// workloads run the same code on opposite shapes; the hot workload never
// reaches the pipeline; the execute workload never reaches the search
// pipeline; the mixed workload puts writes beside reads.
var workloads = []workload{
	{
		Name:  "dblp_search_miss",
		Why:   "distinct 2-6 value-keyword searches on DBLP, open loop 28/s: keywordindex and summary do the work, cache and exec are bypassed",
		Data:  dblpFull,
		Smoke: dblpSmoke, OpenRate: 28, LayerQueries: 60, ShardQueries: 20,
		Source: func(c *corpus, seed int64, _ func([]string) int) opSource {
			return newMissStream(c, seed, dblpShapes.pick)
		},
	},
	{
		Name:  "tap_search_miss",
		Why:   "distinct 3-6 class/relation/name searches on TAP, open loop 100/s: core exploration dominates, keywordindex does little",
		Data:  tapFull,
		Smoke: tapSmoke, OpenRate: 100, LayerQueries: 200, ShardQueries: 50,
		Source: func(c *corpus, seed int64, _ func([]string) int) opSource {
			return newMissStream(c, seed, tapShapes.pick)
		},
	},
	{
		Name:  "dblp_search_hot",
		Why:   "64 fixed searches cycled, open loop 2500/s, 99%+ result-cache hits: only the server layer works, the pipeline is bypassed",
		Data:  dblpFull,
		Smoke: dblpSmoke, OpenRate: 2500, LayerQueries: 64, ShardQueries: 16, WarmHead: true, CacheServed: true,
		Source: func(c *corpus, seed int64, _ func([]string) int) opSource {
			return hotSource(c, seed)
		},
	},
	{
		Name:  "dblp_execute",
		Why:   "/v1/execute only, open loop 1000/s, two selective inline joins per keywords+rank answer streamed as NDJSON: exec, store and encoding work, search is bypassed",
		Data:  dblpFull,
		Smoke: dblpSmoke, OpenRate: 1000, LayerQueries: 324, ShardQueries: 108, WarmHead: true,
		Source: func(c *corpus, seed int64, ncands func([]string) int) opSource {
			return twoToOne{newCycle(inlineOps(c, seed, 256, false)), newCycle(rankOps(c, seed, 2, ncands))}
		},
	},
	{
		Name:  "dblp_mixed_ingest",
		Why:   "live backend, a writer posting 100 20-triple batches/s beside a reader at 30/s: epoch swaps, WAL fsync and cache invalidation under read load, then kill -9 and recovery",
		Data:  dblpFull,
		Smoke: dblpSmoke, Live: true, OpenRate: 30, IngestRate: 100, LayerQueries: 60, ShardQueries: 0,
		Source: func(c *corpus, seed int64, _ func([]string) int) opSource {
			miss := newMissStream(c, seed, dblpShapes.pick)
			miss.loose = true
			return twoToOne{miss, newCycle(inlineOps(c, seed, 256, true))}
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Requests

type opKind uint8

const (
	opSearch     opKind = iota // POST /v1/search
	opExecInline               // POST /v1/execute with an inline conjunctive query
	opExecRank                 // POST /v1/execute by keywords+rank, streamed as NDJSON
	opIngest                   // POST /v1/ingest with one batch of triples
)

// op is one generated request plus what the in-process reference needs
// to compute the expected answer.
type op struct {
	Kind     opKind
	Body     []byte
	Keywords []string
	Rank     int
	Limit    int
	Query    *query.ConjunctiveQuery
	Batch    int // opIngest: index of the batch in the writer's stream
	// Loose marks a search whose exact answer depends on which epoch of
	// concurrently ingested data served it; it is checked for shape
	// (200, every keyword matched, candidates well-formed) and exactly
	// only after recovery, when the data is fixed again.
	Loose bool
}

func (o *op) path() string {
	switch o.Kind {
	case opSearch:
		return "/v1/search"
	case opIngest:
		return "/v1/ingest"
	}
	return "/v1/execute"
}

// opSource is a deterministic request stream: at(i) is always the same
// request for the same seed, whichever goroutine asks.
type opSource interface {
	at(i int) *op
}

// cycle repeats a fixed list.
type cycle struct{ ops []*op }

func newCycle(ops []*op) cycle { return cycle{ops} }

func (c cycle) at(i int) *op { return c.ops[i%len(c.ops)] }

// twoToOne interleaves two streams: two requests of the first, then one
// of the second. An even split of two request classes whose latencies lie
// a factor of ten or more apart would put the median on the boundary
// between them, where one request either way moves it; at two to one the
// median sits inside the first class and the 95th percentile inside the
// second.
type twoToOne struct{ first, second opSource }

func (m twoToOne) at(i int) *op {
	if i%3 == 2 {
		return m.second.at(i / 3)
	}
	return m.first.at(i - i/3)
}

// missStream generates pairwise distinct keyword searches on demand, so
// the server's result cache never hits however fast the server gets.
// Single keywords recur across queries with different partners.
type missStream struct {
	mu    sync.Mutex
	c     *corpus
	rng   *rand.Rand
	pick  func(c *corpus, rng *rand.Rand, i int) []string
	seen  map[string]bool
	ops   []*op
	loose bool
}

func newMissStream(c *corpus, seed int64, pick func(*corpus, *rand.Rand, int) []string) *missStream {
	return &missStream{c: c, rng: rand.New(rand.NewSource(seed)), pick: pick, seen: map[string]bool{}}
}

func (m *missStream) at(i int) *op {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.ops) <= i {
		var kws []string
		// A repeat is rare on these vocabularies; running out of new
		// queries means the shapes are too narrow for the corpus.
		for try := 0; ; try++ {
			if try == 1000 {
				panic(fmt.Sprintf("request stream cannot produce a %dth distinct query", len(m.ops)+1))
			}
			kws = m.pick(m.c, m.rng, len(m.ops))
			if key := queryKey(kws); !m.seen[key] {
				m.seen[key] = true
				break
			}
		}
		o := searchOp(kws)
		o.Loose = m.loose
		m.ops = append(m.ops, o)
	}
	return m.ops[i]
}

// queryKey identifies a keyword query up to keyword order. The server's
// cache key is order-sensitive, so distinct keys here are distinct there.
func queryKey(kws []string) string {
	s := append([]string(nil), kws...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

func searchOp(kws []string) *op {
	body, _ := json.Marshal(map[string]any{"keywords": kws}) // strings only: cannot fail
	return &op{Kind: opSearch, Body: body, Keywords: kws}
}

// A shape is the make-up of one keyword query, one letter per keyword;
// the letters are defined by the dataset's pools below. Query i of a
// stream has shape i mod len(shapes): how many keywords a query has and
// of which kinds decides most of what it costs, so fixing the sequence of
// shapes and letting the seed choose only the words keeps two seeds'
// workloads alike in cost while no two queries are alike in content.
type shapes struct {
	list []string
	// pools offers keywords per letter around a random anchor; round
	// counts the completed cycles through list, for a dataset whose
	// anchors cycle too.
	pools func(c *corpus, rng *rand.Rand, round int) map[byte][]string
}

// pick fills query i's shape from the neighbourhood of a random anchor,
// trying other anchors until one offers enough distinct keywords of each
// kind.
func (sh shapes) pick(c *corpus, rng *rand.Rand, i int) []string {
	shape := sh.list[i%len(sh.list)]
anchors:
	for try := 0; try < 1000; try++ {
		pools := sh.pools(c, rng, i/len(sh.list))
		used := map[string]bool{}
		kws := make([]string, 0, len(shape))
		for k := 0; k < len(shape); k++ {
			pool := pools[shape[k]]
			found := false
			for _, j := range rng.Perm(len(pool)) {
				if kw := pool[j]; kw != "" && !used[kw] {
					used[kw], found = true, true
					kws = append(kws, kw)
					break
				}
			}
			if !found {
				continue anchors
			}
		}
		return kws
	}
	panic(fmt.Sprintf("no anchor in the corpus fills the query shape %q", shape))
}

// dblpShapes: 2–6 value keywords from one random publication's
// neighbourhood, so that every keyword matches something. t = a title
// word, n = an author's name, y = the year, v = the venue's topic.
var dblpShapes = shapes{
	list: []string{"ty", "tny", "ttn", "tty", "ttny", "ttnv", "ttnvy", "ttnny", "tttny", "tttnvy"},
	pools: func(c *corpus, rng *rand.Rand, _ int) map[byte][]string {
		pub := c.Subjects[rng.Intn(len(c.Subjects))]
		a := c.Attrs[pub]
		pools := map[byte][]string{'t': contentWords(a["title"]), 'y': {a["year"]}}
		for _, r := range c.RelsBy[pub] {
			switch c.local(r.Pred) {
			case "author":
				pools['n'] = append(pools['n'], strings.ToLower(c.Attrs[r.O]["name"]))
			case "publishedIn":
				pools['v'] = []string{strings.Join(contentWords(c.Attrs[r.O]["name"], "international", "conference", "journal"), " ")}
			}
		}
		return pools
	},
}

// tapShapes: 3–6 keywords mixing class and relation labels with instance
// names, drawn from two random relations of the data: one relation alone
// connects in a few hundred cursors, two unrelated ones make exploration
// search the summary graph for the path between them. Lower-case letters
// read the first relation, upper-case the second: s, o = the classes of
// the relation's subject and object, p = the subject's superclass, r = the
// relation, a, b = the subject's and object's names. Every shape names an
// instance, or the stream would run out of distinct queries.
//
// Which two predicates meet decides how far apart the keywords lie, and so
// what the query costs — from a millisecond to tens of them. The pairs of
// predicates therefore cycle as the shapes do, in a fixed shuffled order,
// and the seed chooses only the relations and instances.
var tapShapes = shapes{
	list: []string{"arO", "srB", "aRo", "arOB", "sraO", "aroS", "arobS", "sraOB", "aroARO", "psraOB"},
	pools: func(c *corpus, rng *rand.Rand, round int) map[byte][]string {
		// The round-th ordered pair of distinct predicates.
		n := len(c.Preds)
		pair := rand.New(rand.NewSource(1)).Perm(n * (n - 1))[round%(n*(n-1))]
		first, second := pair/(n-1), pair%(n-1)
		if second >= first {
			second++
		}
		pools := map[byte][]string{}
		for k, pred := range []string{c.Preds[first], c.Preds[second]} {
			rels := c.RelsOf[pred]
			r := rels[rng.Intn(len(rels))]
			sc, oc := c.Class[r.S], c.Class[r.O]
			for letter, kw := range map[byte]string{
				's': c.label(sc), 'o': c.label(oc), 'r': c.label(r.Pred), 'p': c.label(c.Super[sc]),
				'a': strings.ToLower(c.Attrs[r.S]["name"]), 'b': strings.ToLower(c.Attrs[r.O]["name"]),
			} {
				if k == 1 {
					letter -= 'a' - 'A'
				}
				pools[letter] = []string{kw}
			}
		}
		return pools
	},
}

// hotSource is the paper's Fig. 5 queries Q1–Q10 plus 54 sampled ones,
// cycled: after one pass every request is a result-cache hit.
func hotSource(c *corpus, seed int64) opSource {
	var ops []*op
	for _, q := range swbench.PerfWorkload() {
		ops = append(ops, searchOp(q.Keywords))
	}
	sampled := newMissStream(c, seed+1, dblpShapes.pick)
	for i := 0; len(ops) < 64; i++ {
		ops = append(ops, sampled.at(i))
	}
	return newCycle(ops)
}

// ---------------------------------------------------------------------------
// Inline conjunctive queries

type argSpec struct {
	Var     string  `json:"var,omitempty"`
	IRI     string  `json:"iri,omitempty"`
	Literal *string `json:"literal,omitempty"`
}

type atomSpec struct {
	S argSpec `json:"s"`
	P argSpec `json:"p"`
	O argSpec `json:"o"`
}

func vr(name string) argSpec   { return argSpec{Var: name} }
func iri(value string) argSpec { return argSpec{IRI: value} }
func lit(value string) argSpec { return argSpec{Literal: &value} }

func (a argSpec) arg() query.Arg {
	switch {
	case a.Var != "":
		return query.Variable(a.Var)
	case a.IRI != "":
		return query.Constant(rdf.NewIRI(a.IRI))
	default:
		return query.Constant(rdf.NewLiteral(*a.Literal))
	}
}

// inlineOp renders atoms both as the /v1/execute body and as the query
// the reference engine evaluates, built the way the server builds it.
func inlineOp(atoms []atomSpec, limit int) *op {
	body, _ := json.Marshal(map[string]any{"query": map[string]any{"atoms": atoms}, "limit": limit}) // plain data: cannot fail
	q := &query.ConjunctiveQuery{}
	for _, at := range atoms {
		q.AddAtom(query.Atom{Pred: rdf.NewIRI(at.P.IRI), S: at.S.arg(), O: at.O.arg()})
	}
	return &op{Kind: opExecInline, Body: body, Query: q, Limit: limit}
}

// inlineLimit is the row limit of the inline joins: above what the
// selective templates return, so truncation there would be a finding.
const inlineLimit = 200

// inlineOps builds n selective joins, each anchored at a random
// publication so it has at least one answer. With invariant set, only
// templates bound to a base subject are used: concurrent ingest adds new
// subjects only, so their answers do not depend on the epoch.
func inlineOps(c *corpus, seed int64, n int, invariant bool) []*op {
	rng := rand.New(rand.NewSource(seed + 2))
	p := func(local string) argSpec { return iri(c.NS + local) }
	ops := make([]*op, 0, n)
	for len(ops) < n {
		pub := c.Subjects[rng.Intn(len(c.Subjects))]
		var author, venue string
		cites := false
		for _, r := range c.RelsBy[pub] {
			switch c.local(r.Pred) {
			case "author":
				author = r.O
			case "publishedIn":
				venue = r.O
			case "cites":
				cites = true
			}
		}
		year := c.Attrs[pub]["year"]
		// Templates cycle, for the same reason query shapes do.
		tmpl := len(ops) % 5
		if invariant {
			tmpl = len(ops) % 2
		}
		if tmpl == 0 && !cites {
			tmpl = 1
		}
		var atoms []atomSpec
		switch tmpl {
		case 0: // what a publication cites
			atoms = []atomSpec{
				{iri(pub), p("cites"), vr("q")},
				{vr("q"), p("title"), vr("t")},
				{vr("q"), p("year"), vr("y")},
			}
		case 1: // a publication's authors and where they work
			atoms = []atomSpec{
				{iri(pub), p("author"), vr("a")},
				{vr("a"), p("name"), vr("n")},
				{vr("a"), p("worksAt"), vr("i")},
				{vr("i"), p("name"), vr("in")},
			}
		case 2: // an author's publications of one year
			atoms = []atomSpec{
				{vr("p"), p("author"), iri(author)},
				{vr("p"), p("year"), lit(year)},
				{vr("p"), p("title"), vr("t")},
			}
		case 3: // where an author, found by name, published
			atoms = []atomSpec{
				{vr("a"), p("name"), lit(c.Attrs[author]["name"])},
				{vr("p"), p("author"), vr("a")},
				{vr("p"), p("publishedIn"), vr("v")},
				{vr("v"), p("name"), vr("vn")},
			}
		case 4: // who published at a venue in one year
			atoms = []atomSpec{
				{vr("p"), p("publishedIn"), iri(venue)},
				{vr("p"), p("year"), lit(year)},
				{vr("p"), p("author"), vr("a")},
				{vr("a"), p("name"), vr("n")},
			}
		}
		ops = append(ops, inlineOp(atoms, inlineLimit))
	}
	return ops
}

// rankLimit is the row limit of the streamed executes.
const rankLimit = 2000

// rankLabels are the class and relation labels the keywords+rank executes
// pair with a year; rankRanks is how many of such a search's candidates are
// executed.
var rankLabels = []string{"publication", "article", "inproceedings", "cites", "author", "published in"}

const rankRanks = 3

// rankOps builds keywords+rank executes with large answer sets (a class or
// relation label joined with a year), streamed as NDJSON: perCell of them
// for every pairing of a label with a rank. What such an execute costs
// depends on the label and the rank far more than on the year — the same
// reason query shapes cycle — so the mix of the two is fixed and the seed
// chooses only the years. ncands reports how many candidates the reference
// engine finds, so every rank exists; the server resolves the same
// candidates from its search cache, which the warm-up fills.
func rankOps(c *corpus, seed int64, perCell int, ncands func([]string) int) []*op {
	rng := rand.New(rand.NewSource(seed + 3))
	yearSet := map[string]bool{}
	for _, s := range c.Subjects {
		yearSet[c.Attrs[s]["year"]] = true
	}
	years := make([]string, 0, len(yearSet))
	for y := range yearSet {
		years = append(years, y)
	}
	sort.Strings(years)
	known := map[string]int{} // candidates per keyword query already asked about
	cells := make([][]*op, 0, len(rankLabels)*rankRanks)
	for _, label := range rankLabels {
		for rank := 0; rank < rankRanks; rank++ {
			var cell []*op
			for _, y := range rng.Perm(len(years)) {
				if len(cell) == perCell {
					break
				}
				kws := []string{label, years[y]}
				nc, ok := known[queryKey(kws)]
				if !ok {
					nc = ncands(kws)
					known[queryKey(kws)] = nc
				}
				// Only a corpus too small for the label (the smoke scale)
				// leaves a cell short.
				if rank < nc {
					body, _ := json.Marshal(map[string]any{"keywords": kws, "rank": rank, "limit": rankLimit}) // plain data: cannot fail
					cell = append(cell, &op{Kind: opExecRank, Body: body, Keywords: kws, Rank: rank, Limit: rankLimit})
				}
			}
			cells = append(cells, cell)
		}
	}
	// One execute of every cell, then the next of every cell: any stretch of
	// the cycle carries the whole mix.
	var ops []*op
	for k := 0; k < perCell; k++ {
		for _, cell := range cells {
			if k < len(cell) {
				ops = append(ops, cell[k])
			}
		}
	}
	if len(ops) == 0 {
		panic(fmt.Sprintf("no keywords+rank execute could be generated from %d publications", len(c.Subjects)))
	}
	return ops
}
