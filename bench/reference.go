package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/snapshot"
)

// reference is the in-process engine every HTTP answer is checked
// against: the same snapshot the server booted from, loaded by the
// benchmark and queried through the engine's public API with the
// server's default configuration.
type reference struct {
	eng  *engine.Engine
	snap *snapshot.Info // owns the engine's mapping; nil for an engine built in memory

	mu   sync.Mutex
	memo map[*op]uint64
}

// loadReference maps the snapshot file buildindex wrote.
func loadReference(snapPath string) (*reference, error) {
	eng, info, err := snapshot.LoadEngine(snapPath, engine.Config{}, snapshot.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &reference{eng: eng, snap: info, memo: map[*op]uint64{}}, nil
}

// close unmaps the snapshot; the engine must not be used afterwards.
func (r *reference) close() {
	if r.snap != nil {
		_ = r.snap.Close() // read-only mapping: nothing to lose
	}
}

// search runs the reference search; unmatched keywords are an answer,
// not an error.
func (r *reference) search(kws []string) ([]*engine.QueryCandidate, []string, error) {
	cands, _, err := r.eng.SearchKContext(context.Background(), kws, 0)
	var um *engine.UnmatchedKeywordsError
	if errors.As(err, &um) {
		return nil, um.Keywords, nil
	}
	return cands, nil, err
}

// ncands is how many candidates a keyword query has.
func (r *reference) ncands(kws []string) int {
	cands, _, err := r.search(kws)
	if err != nil {
		return 0
	}
	return len(cands)
}

// candidate resolves the query an execute request names.
func (r *reference) candidate(o *op) (*engine.QueryCandidate, error) {
	if o.Kind == opExecInline {
		return &engine.QueryCandidate{Query: o.Query}, nil
	}
	cands, _, err := r.search(o.Keywords)
	if err != nil {
		return nil, err
	}
	if o.Rank >= len(cands) {
		return nil, fmt.Errorf("reference has %d candidates for %v, request asks for rank %d", len(cands), o.Keywords, o.Rank)
	}
	return cands[o.Rank], nil
}

// compute is the expected fingerprint of a request's answer.
func (r *reference) compute(o *op) (uint64, error) {
	if o.Kind == opSearch {
		cands, unmatched, err := r.search(o.Keywords)
		return answerFingerprint(cands, unmatched), err
	}
	cand, err := r.candidate(o)
	if err != nil {
		return 0, err
	}
	rs, err := r.eng.ExecuteLimitContext(context.Background(), cand, o.Limit)
	if err != nil {
		return 0, err
	}
	return executeFingerprint(rs.Len(), rs.Truncated), nil
}

// answerFingerprint is the fingerprint the server's response to a search
// must have when the reference answers it with cands and unmatched.
func answerFingerprint(cands []*engine.QueryCandidate, unmatched []string) uint64 {
	f := newSearchFingerprint()
	for _, c := range cands {
		f.candidate(c.SPARQL(), c.Cost)
	}
	for _, kw := range unmatched {
		f.unmatched(kw)
	}
	return f.h.Sum64()
}

// remember stores an expected fingerprint computed elsewhere (the layers
// pass computes the same searches anyway).
func (r *reference) remember(o *op, fp uint64) {
	r.mu.Lock()
	r.memo[o] = fp
	r.mu.Unlock()
}

// check compares every observed answer with the reference and returns
// the number of wrong ones, with a description of the first few. Each
// distinct request is computed once, on all CPUs: the server is idle or
// gone by now.
func (r *reference) check(observed []obs) (wrong int, notes []string) {
	var todo []*op
	r.mu.Lock()
	queued := map[*op]bool{}
	for _, ob := range observed {
		if _, done := r.memo[ob.Op]; !done && !queued[ob.Op] && !ob.Op.Loose && ob.Op.Kind != opIngest {
			queued[ob.Op] = true
			todo = append(todo, ob.Op)
		}
	}
	r.mu.Unlock()
	errs := make([]error, len(todo))
	fps := make([]uint64, len(todo))
	parallel.ForEach(parallel.Workers(0), len(todo), func(i int) {
		fps[i], errs[i] = r.compute(todo[i])
	})
	for i, o := range todo {
		if errs[i] != nil {
			// A reference that cannot answer makes every matching response
			// unverifiable: count them wrong rather than let them pass.
			fps[i] = ^uint64(0)
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("reference failed on %s: %v", o.Body, errs[i]))
			}
		}
		r.remember(o, fps[i])
	}
	for _, ob := range observed {
		if ob.Op.Loose || ob.Op.Kind == opIngest {
			continue
		}
		if want := r.memo[ob.Op]; ob.Reply.FP != want {
			wrong++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("wrong answer for %s: fingerprint %x, reference %x", ob.Op.Body, ob.Reply.FP, want))
			}
		}
	}
	return wrong, notes
}
