package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it counts as
// failed. The server's own default deadline is 10 s.
const requestTimeout = 15 * time.Second

// shedAfter is how far behind schedule an open-loop request may fall
// before it is counted as failed without being sent: past that the
// backlog is growing and the run says so instead of running on.
const shedAfter = 5 * time.Second

// lateThreshold is the dispatch delay above which the load generator
// itself — not the server — is counted as having run late.
const lateThreshold = time.Millisecond

// sleepMargin is how close to a due time the open-loop dispatcher sleeps
// before it starts yielding: above the kernel's worst timer overshoot.
const sleepMargin = 1500 * time.Microsecond

// client sends requests to one serverd over a fixed number of
// keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what the benchmark keeps of one response.
type reply struct {
	FP       uint64  // answer fingerprint, compared with the reference after the run
	Bytes    int     // response body size
	Cached   bool    // search: served from the result cache
	Added    int     // ingest: triples that were new
	Swapped  bool    // ingest: this batch triggered an epoch swap
	ServerMS float64 // ingest: the server's own elapsed_ms
}

// do sends one request and checks the response's shape; the answer itself
// is checked against the reference after the run. buf is the caller's
// reusable body buffer.
func (c *client) do(o *op, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+o.path(), bytes.NewReader(o.Body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.Kind == opExecRank {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		body := buf.Bytes()
		if len(body) > 200 {
			body = body[:200]
		}
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	r := reply{Bytes: buf.Len()}
	switch o.Kind {
	case opSearch:
		err = parseSearch(buf.Bytes(), o.Loose, &r)
	case opExecInline:
		err = parseExecuteJSON(buf.Bytes(), &r)
	case opExecRank:
		err = parseExecuteNDJSON(buf.Bytes(), &r)
	case opIngest:
		err = parseIngest(buf.Bytes(), &r)
	}
	return r, err
}

// ---------------------------------------------------------------------------
// Response parsing and fingerprints

type searchReply struct {
	Candidates []struct {
		SPARQL string  `json:"sparql"`
		Cost   float64 `json:"cost"`
	} `json:"candidates"`
	Unmatched []string `json:"unmatched"`
	Cached    bool     `json:"cached"`
}

// searchFingerprint hashes a ranked candidate list — each query text with
// the exact bits of its cost — and the unmatched keywords.
type searchFingerprint struct{ h hash.Hash64 }

func newSearchFingerprint() searchFingerprint { return searchFingerprint{fnv.New64a()} }

func (f searchFingerprint) candidate(sparql string, cost float64) {
	var b [8]byte
	bits := math.Float64bits(cost)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
	f.h.Write([]byte(sparql))
	f.h.Write(b[:])
}

func (f searchFingerprint) unmatched(kw string) {
	f.h.Write([]byte{0xff})
	f.h.Write([]byte(kw))
}

func parseSearch(body []byte, loose bool, r *reply) error {
	var sr searchReply
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("search response: %w", err)
	}
	r.Cached = sr.Cached
	if loose {
		// The exact answer depends on the epoch that served it; the shape
		// does not: every keyword matches base data, candidates are ranked.
		if len(sr.Unmatched) > 0 {
			return fmt.Errorf("search left keywords unmatched: %v", sr.Unmatched)
		}
		prev := 0.0
		for _, c := range sr.Candidates {
			if c.SPARQL == "" || c.Cost <= 0 || c.Cost < prev {
				return errors.New("search candidates are not a ranked list of queries")
			}
			prev = c.Cost
		}
		return nil
	}
	f := newSearchFingerprint()
	for _, c := range sr.Candidates {
		f.candidate(c.SPARQL, c.Cost)
	}
	for _, kw := range sr.Unmatched {
		f.unmatched(kw)
	}
	r.FP = f.h.Sum64()
	return nil
}

// executeFingerprint is an execute answer's row count and truncated flag.
func executeFingerprint(count int, truncated bool) uint64 {
	fp := uint64(count) << 1
	if truncated {
		fp |= 1
	}
	return fp
}

func parseExecuteJSON(body []byte, r *reply) error {
	var er struct {
		Rows      []json.RawMessage `json:"rows"`
		Count     int               `json:"count"`
		Truncated bool              `json:"truncated"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		return fmt.Errorf("execute response: %w", err)
	}
	if len(er.Rows) != er.Count {
		return fmt.Errorf("execute response carries %d rows but says count %d", len(er.Rows), er.Count)
	}
	r.FP = executeFingerprint(er.Count, er.Truncated)
	return nil
}

// parseExecuteNDJSON reads a streamed answer: a header line, one line per
// row, a trailer with the count. Only the trailer is decoded; the rows
// are counted.
func parseExecuteNDJSON(body []byte, r *reply) error {
	body = bytes.TrimRight(body, "\n")
	last := bytes.LastIndexByte(body, '\n')
	if last < 0 {
		return errors.New("streamed execute response has no trailer line")
	}
	var tr struct {
		Count     *int `json:"count"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(body[last+1:], &tr); err != nil || tr.Count == nil {
		return fmt.Errorf("streamed execute trailer %q: %v", body[last+1:], err)
	}
	if rows := bytes.Count(body[:last], []byte{'\n'}); rows != *tr.Count {
		return fmt.Errorf("streamed execute response carries %d rows but says count %d", rows, *tr.Count)
	}
	r.FP = executeFingerprint(*tr.Count, tr.Truncated)
	return nil
}

func parseIngest(body []byte, r *reply) error {
	var ir struct {
		Received  int     `json:"received"`
		Added     int     `json:"added"`
		Seq       uint64  `json:"seq"`
		Swapped   bool    `json:"swapped"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		return fmt.Errorf("ingest response: %w", err)
	}
	if ir.Seq == 0 || ir.Received != batchTriples {
		return fmt.Errorf("ingest ack is not an acknowledgement of %d triples: %s", batchTriples, body)
	}
	r.Added, r.Swapped, r.ServerMS = ir.Added, ir.Swapped, ir.ElapsedMS
	return nil
}

// ---------------------------------------------------------------------------
// Phases

// obs is one successful request, kept for the after-run answer check.
type obs struct {
	Op    *op
	Reply reply
	LatMS float64
	Done  time.Time
}

// phase is the outcome of one measured stretch of load.
type phase struct {
	Attempted int
	Failed    int // refused, timed out, non-2xx, malformed, or shed; wrong answers are added after the run
	Obs       []obs
	Start     time.Time
	Elapsed   time.Duration
	Late      int      // open loop: requests dispatched more than lateThreshold behind schedule
	Errors    []string // the first few failures, for the report
}

func (p *phase) merge(q *phase) {
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	p.Obs = append(p.Obs, q.Obs...)
	for _, e := range q.Errors {
		p.note(e)
	}
}

func (p *phase) note(err string) {
	if len(p.Errors) < 5 {
		p.Errors = append(p.Errors, err)
	}
}

func (p *phase) record(o *op, r reply, err error, lat time.Duration) {
	p.Attempted++
	if err != nil {
		p.Failed++
		p.note(err.Error())
		return
	}
	p.Obs = append(p.Obs, obs{Op: o, Reply: r, LatMS: float64(lat) / float64(time.Millisecond), Done: time.Now()})
}

// latencies returns the successful requests' latencies in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.Obs))
	for i, o := range p.Obs {
		out[i] = o.LatMS
	}
	return out
}

func (p *phase) bytesOut() (n int64) {
	for _, o := range p.Obs {
		n += int64(o.Reply.Bytes)
	}
	return n
}

// closedLoop runs conns clients for d: each sends its next request only
// after the previous one completed, so a slower server receives less
// load. next hands out stream positions, shared with the other phases so
// no request repeats across them.
func closedLoop(c *client, src opSource, next *atomic.Int64, conns int, d time.Duration) *phase {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				o := src.at(int(next.Add(1) - 1))
				t := time.Now()
				r, err := c.do(o, &buf)
				p.record(o, r, err, time.Since(t))
			}
		}(&parts[w])
	}
	wg.Wait()
	total := &phase{Start: start, Elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// openLoop sends rate requests per second for d on a fixed schedule,
// whatever the server does, over conns connections. Send k is due at
// start + k/rate. A request's latency runs from the time it was due, so a
// stall shows in every request that queued behind it.
//
// The schedule is kept by one dispatcher that hands each send to the
// connections at its due time. Timed sleeps on the sandbox's kernel
// overshoot by 0.5–1 ms, more than a cache hit takes, so the dispatcher
// sleeps only to within sleepMargin of the due time and then yields the
// CPU in a loop until it: precise while a core is idle, and never in the
// way of a runnable server thread for longer than one yield. A send the
// dispatcher hands over more than lateThreshold after its due time counts
// as late: the load generator's own fault, not the server's.
func openLoop(c *client, src opSource, next *atomic.Int64, conns int, rate float64, d time.Duration) *phase {
	type job struct {
		i   int
		due time.Time
	}
	n := int(rate * d.Seconds())
	interval := float64(time.Second) / rate
	jobs := make(chan job, n)                     // one slot per send: the dispatcher never waits for a connection
	start := time.Now().Add(5 * time.Millisecond) // the dispatcher needs a moment to get onto its thread
	late := 0
	// The dispatcher occupies a scheduler slot of its own while it runs,
	// so the connections keep theirs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(float64(k) * interval))
			if wait := time.Until(due); wait > sleepMargin {
				time.Sleep(wait - sleepMargin)
			}
			for time.Now().Before(due) {
				syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
			if time.Since(due) > lateThreshold {
				late++
			}
			jobs <- job{int(next.Add(1) - 1), due}
		}
		close(jobs)
	}()
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				o := src.at(j.i)
				if time.Since(j.due) > shedAfter {
					p.record(o, reply{}, errors.New("shed: more than 5s behind schedule"), 0)
					continue
				}
				r, err := c.do(o, &buf)
				p.record(o, r, err, time.Since(j.due))
			}
		}(&parts[w])
	}
	wg.Wait() // the connections end when the dispatcher has closed the channel, so late is settled
	total := &phase{Start: start, Elapsed: time.Since(start), Late: late}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
