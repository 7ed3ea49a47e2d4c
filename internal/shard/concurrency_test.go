package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Concurrent scatter-gather coverage: many goroutines searching and
// executing against one cluster, exercised under -race in CI. The cluster
// is immutable after Build, the explorer checks out per-search state, and
// every shard structure is read-only — so this must be data-race free.
func TestClusterConcurrentScatterGather(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 300, Seed: 1})
	cl := buildCluster(t, 4, triples, engine.Config{K: 5})

	queries := [][]string{
		{"thanh tran", "publication"},
		{"philipp cimiano", "aifb"},
		{"publication", "2006"},
		{"article", "journal"},
		{"keyword", "search"},
		{"thanh tran", "before 2005"},
	}

	const workers = 8
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				kws := queries[(w+i)%len(queries)]
				cands, _, err := cl.SearchKContext(ctx, kws, 0)
				if err != nil {
					errc <- err
					return
				}
				if len(cands) > 0 {
					if _, err := cl.ExecuteLimitContext(ctx, cands[0], 20); err != nil {
						errc <- err
						return
					}
					if _, err := cl.Explain(cands[0]); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// Cancellation must cut off both the scatter stage and the distributed
// join promptly, surfacing ctx.Err().
func TestClusterCancellation(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 200, Seed: 1})
	cl := buildCluster(t, 2, triples, engine.Config{})

	// Already-expired context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cl.SearchKContext(ctx, []string{"publication"}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("search on cancelled ctx: %v", err)
	}
	cands, _, err := cl.SearchKContext(context.Background(), []string{"publication", "author"}, 0)
	if err != nil || len(cands) == 0 {
		t.Fatalf("search: %v", err)
	}
	if _, err := cl.ExecuteLimitContext(ctx, cands[0], 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("execute on cancelled ctx: %v", err)
	}

	// A deadline that expires mid-flight surfaces DeadlineExceeded (or
	// completes if the machine is fast — both are acceptable; what is not
	// is a hang or a non-context error).
	dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer dcancel()
	time.Sleep(50 * time.Microsecond)
	if _, _, err := cl.SearchKContext(dctx, []string{"publication", "2006"}, 0); err != nil &&
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search under expired deadline: %v", err)
	}
}

// spanNames counts the span names in a span tree.
func spanNames(nodes []*trace.Node, into map[string]int) map[string]int {
	if into == nil {
		into = map[string]int{}
	}
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Children, into)
	}
	return into
}

// TestClusterTraceHasShardSpans pins the scatter-gather visibility: a
// traced search against a 4-shard cluster shows one shard_lookup child
// per shard plus the merge step, and a traced execute shows the
// per-step bind joins with their per-shard children.
func TestClusterTraceHasShardSpans(t *testing.T) {
	triples := datagen.DBLPTriples(datagen.DBLPConfig{Publications: 200, Seed: 1})
	cl := buildCluster(t, 4, triples, engine.Config{K: 5})

	tr := trace.New("search")
	cands, _, err := cl.SearchKContext(tr.Context(context.Background()), []string{"thanh tran", "publication"}, 0)
	tr.Finish()
	names := spanNames(tr.Tree(), nil)
	tr.Release()
	if err != nil || len(cands) == 0 {
		t.Fatalf("search: %d candidates, err %v", len(cands), err)
	}
	if names["shard_lookup"] != 4 {
		t.Errorf("want 4 shard_lookup spans, got %d (%v)", names["shard_lookup"], names)
	}
	if names["merge"] == 0 {
		t.Errorf("search trace missing merge span: %v", names)
	}

	tr = trace.New("execute")
	_, err = cl.ExecuteLimitContext(tr.Context(context.Background()), cands[0], 0)
	tr.Finish()
	names = spanNames(tr.Tree(), nil)
	tr.Release()
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if names["bind_join_step"] == 0 {
		t.Errorf("execute trace missing bind_join_step spans: %v", names)
	}
	if names["shard_join"] != 4*names["bind_join_step"] {
		t.Errorf("want %d shard_join spans (4 per step), got %d",
			4*names["bind_join_step"], names["shard_join"])
	}
}
