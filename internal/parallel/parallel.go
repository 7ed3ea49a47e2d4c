// Package parallel is the intra-query fork-join helper: a minimal,
// allocation-conscious way to spread N independent tasks of one request
// over a bounded set of goroutines. Every per-keyword stage of the query
// pipeline (keyword-index lookups, oracle Dijkstras) fans out through
// it, so one
// configuration knob — the worker cap threaded from engine.Config
// (serverd -parallelism) — governs them all.
//
// The helper is deliberately not a worker pool: queries are short and a
// request already runs on its own goroutine, so tasks are claimed from an
// atomic counter by workers spawned per call, and the calling goroutine
// works too (a call with an effective width of 1 runs entirely inline,
// with zero goroutines and zero allocation). Task functions must not
// panic across the boundary and must do their own context polling;
// callers check ctx.Err() once after the join.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker cap against the machine: values
// ≤ 0 mean "one worker per available CPU" (GOMAXPROCS), anything else is
// taken as given. The result is always ≥ 1.
func Workers(cap int) int {
	if cap <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cap
}

// ForEach runs fn(i) for every i in [0, n), spread over at most `workers`
// goroutines (including the calling one), and returns when all calls have
// finished. Tasks are claimed in index order from a shared counter, so
// uneven task costs balance automatically. With workers ≤ 1 or n ≤ 1 the
// loop runs inline on the caller.
//
// fn runs concurrently with other indices: it must only write state owned
// by its index (or its worker slot — see ForEachWorker).
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker's identity passed alongside
// the task index: fn(w, i) is called with w in [0, width) where width =
// min(workers, n), and any two calls sharing a w are sequential. The
// worker id is what lets tasks share recycled scratch buffers (one slot
// per worker) without locking — the oracle's Dijkstra frontiers use this.
func ForEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0) // the caller is worker 0
	wg.Wait()
}
