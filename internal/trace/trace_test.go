package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := New("request")
	ctx := tr.Context(context.Background())

	ctx1, lookup := StartSpan(ctx, "lookup")
	_, inner := StartSpan(ctx1, "fuzzy")
	inner.Annotate("kw=tran")
	inner.End()
	lookup.End()
	_, explore := StartSpan(ctx, "explore")
	explore.End()
	tr.Finish()

	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("want 1 root, got %d", len(roots))
	}
	root := roots[0]
	if root.Name != "request" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children, want request with 2", root.Name, len(root.Children))
	}
	if root.Children[0].Name != "lookup" || root.Children[1].Name != "explore" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	lk := root.Children[0]
	if len(lk.Children) != 1 || lk.Children[0].Name != "fuzzy" || lk.Children[0].Note != "kw=tran" {
		t.Fatalf("lookup children wrong: %+v", lk.Children)
	}
	text := Format(roots)
	for _, want := range []string{"request", "  lookup", "    fuzzy [kw=tran]", "  explore"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}
	tr.Release()
}

func TestDurationsMonotone(t *testing.T) {
	tr := New("request")
	ctx := tr.Context(context.Background())
	_, sp := StartSpan(ctx, "work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tr.Finish()
	root := tr.Tree()[0]
	child := root.Children[0]
	if child.DurMS < 1 {
		t.Errorf("child span %vms, want ≥ 1ms", child.DurMS)
	}
	if root.DurMS < child.DurMS {
		t.Errorf("root %vms shorter than child %vms", root.DurMS, child.DurMS)
	}
	if child.StartMS < 0 || child.StartMS > root.DurMS {
		t.Errorf("child start %vms outside root [0, %vms]", child.StartMS, root.DurMS)
	}
	tr.Release()
}

// TestConcurrentScatterGather exercises the scatter-gather shape under
// the race detector: one parent context fanned out to many goroutines,
// each starting and ending child spans (with grandchildren) while
// siblings do the same.
func TestConcurrentScatterGather(t *testing.T) {
	tr := New("request")
	ctx := tr.Context(context.Background())
	ctx, gather := StartSpan(ctx, "scatter")

	const shards = 16
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, sp := StartSpan(ctx, "shard")
			for j := 0; j < 8; j++ {
				_, leaf := StartSpan(sctx, "step")
				leaf.End()
			}
			sp.End()
		}()
	}
	wg.Wait()
	gather.End()
	tr.Finish()

	root := tr.Tree()[0]
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want 1 (scatter)", len(root.Children))
	}
	sc := root.Children[0]
	if len(sc.Children) != shards {
		t.Fatalf("scatter has %d children, want %d", len(sc.Children), shards)
	}
	for _, sh := range sc.Children {
		if sh.Name != "shard" || len(sh.Children) != 8 {
			t.Fatalf("shard node %q has %d children, want 8", sh.Name, len(sh.Children))
		}
	}
	tr.Release()
}

// TestDisabledPathAllocates0 pins the contract the hot-path
// instrumentation relies on: with no trace in the context, StartSpan,
// End, Annotate, and Child are allocation-free no-ops.
func TestDisabledPathAllocates0(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c2, sp := StartSpan(ctx, "explore")
		_, sp2 := StartSpan(c2, "oracle_build")
		sp2.Annotate("unused")
		sp2.End()
		sp.Child("x").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan path allocates %.0f/op, want 0", allocs)
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on a bare context should be nil")
	}
}

// TestPoolReuse proves a released trace serves a fresh request cleanly.
func TestPoolReuse(t *testing.T) {
	tr := New("a")
	ctx := tr.Context(context.Background())
	_, sp := StartSpan(ctx, "x")
	sp.End()
	tr.Finish()
	tr.Release()

	tr2 := New("b")
	tr2.Finish()
	roots := tr2.Tree()
	if len(roots) != 1 || roots[0].Name != "b" || len(roots[0].Children) != 0 {
		t.Fatalf("reused trace not reset: %+v", roots)
	}
	tr2.Release()
}

func TestFinishIdempotentAndOpenSpans(t *testing.T) {
	tr := New("r")
	ctx := tr.Context(context.Background())
	StartSpan(ctx, "never-ended")
	tr.Finish()
	d1 := tr.Duration()
	time.Sleep(time.Millisecond)
	tr.Finish()
	if d2 := tr.Duration(); d2 != d1 {
		t.Errorf("second Finish moved root end: %v → %v", d1, d2)
	}
	// Open spans render with a duration up to now rather than zero.
	n := tr.Tree()[0].Children[0]
	if n.DurMS < 0 {
		t.Errorf("open span rendered with negative duration %v", n.DurMS)
	}
	tr.Release()
}

func TestEachSpan(t *testing.T) {
	tr := New("r")
	ctx := tr.Context(context.Background())
	_, a := StartSpan(ctx, "a")
	a.End()
	_, b := StartSpan(ctx, "b")
	b.End()
	tr.Finish()
	got := map[string]int{}
	tr.EachSpan(func(name string, seconds float64) {
		if seconds < 0 {
			t.Errorf("span %s has negative duration", name)
		}
		got[name]++
	})
	if got["r"] != 1 || got["a"] != 1 || got["b"] != 1 {
		t.Errorf("EachSpan visited %v", got)
	}
	tr.Release()
}
