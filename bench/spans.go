package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one replayed query share Query;
// Parent is the index of the span that caused this one (-1 for a root).
// Start and End are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
}

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, query int32) int32 {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Query: query})
	return int32(len(r.spans) - 1)
}

// end closes the span and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// child records a span whose duration the layer itself reported (the
// oracle build inside an exploration): it is placed at the start of its
// parent, which is where the layer runs it.
func (r *recorder) child(name string, parent int32, d time.Duration) int32 {
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Start: p.Start, End: p.Start + int64(d), Parent: parent, Query: p.Query})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children (parallel
// parts) are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}
