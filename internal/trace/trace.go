// Package trace is the request-scoped span tracer of the serving path: a
// dependency-free, allocation-conscious record of where the time inside
// one query went — keyword lookup vs oracle build vs exploration vs join
// — threaded through the online code via context.Context, exactly like
// cancellation already is.
//
// Design discipline matches the core cursor slab: spans live in a flat
// slab owned by the Trace, parents are int32 indices into it (no
// pointers between spans, no per-span heap nodes), timestamps are
// monotonic offsets from one epoch taken at trace start, and Traces are
// recycled through a sync.Pool so a warm server traces requests without
// allocating span storage. When no Trace rides the context — the
// tracing-disabled case every benchmark and library caller hits — every
// instrumentation point degenerates to a single context.Value lookup and
// allocates nothing.
//
// Usage, producer side (the serving layer):
//
//	tr := trace.New("search")
//	ctx = tr.Context(ctx)
//	... run the request ...
//	tr.Finish()
//	nodes := tr.Tree() // render before Release
//	tr.Release()
//
// Usage, instrumentation side (engine, core, exec, shard):
//
//	ctx, sp := trace.StartSpan(ctx, "explore")
//	defer sp.End()
//
// StartSpan parents the new span on the span currently carried by ctx
// and threads itself as the new parent, so nesting falls out of ordinary
// call structure — including across goroutines, because the returned
// context is safe to hand to concurrent children (the slab is internally
// locked; scatter-gather fan-outs each start their own child span from
// the same parent context).
package trace

import (
	"context"
	"sync"
	"time"
)

// SpanID indexes a span inside its Trace's slab. The zero value is the
// root span of the trace.
type SpanID int32

// noParent marks the root span's parent link.
const noParent SpanID = -1

// spanRec is one span in the slab: 8-byte offsets from the trace epoch,
// a parent link by index, and the name/note strings. Records are only
// ever appended; ending a span writes its end offset in place.
type spanRec struct {
	name   string
	note   string
	parent SpanID
	start  int64 // monotonic ns since the trace epoch
	end    int64 // 0 while the span is open
}

// Trace is one request's span tree. It is safe for concurrent use: any
// number of goroutines may start and end spans on it at once (the
// scatter-gather stages do). Create with New, attach to a context with
// Context, and recycle with Release when the request is fully rendered.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time // monotonic reference for every span offset
	spans []spanRec // slab; index 0 is the root span
}

// tracePool recycles Trace slabs across requests.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// New checks a Trace out of the pool and opens its root span under the
// given name (typically the endpoint). The root span is open until
// Finish.
func New(rootName string) *Trace {
	t := tracePool.Get().(*Trace)
	t.epoch = time.Now()
	t.spans = append(t.spans[:0], spanRec{name: rootName, parent: noParent})
	return t
}

// Release returns the trace to the pool. The caller must be done with
// every Span handle and rendered view; Tree copies everything out, so
// rendering before Release is safe.
func (t *Trace) Release() {
	tracePool.Put(t)
}

// now returns the monotonic offset from the trace epoch.
func (t *Trace) now() int64 { return int64(time.Since(t.epoch)) }

// start appends an open span and returns its index.
func (t *Trace) start(name string, parent SpanID) SpanID {
	now := t.now()
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now})
	t.mu.Unlock()
	return id
}

// Finish closes the root span. Idempotent; later Finish calls keep the
// first end time.
func (t *Trace) Finish() {
	t.end(0)
}

func (t *Trace) end(id SpanID) {
	now := t.now()
	t.mu.Lock()
	if r := &t.spans[id]; r.end == 0 {
		r.end = now
	}
	t.mu.Unlock()
}

func (t *Trace) annotate(id SpanID, note string) {
	t.mu.Lock()
	t.spans[id].note = note
	t.mu.Unlock()
}

// Duration returns the root span's duration — up to Finish when closed,
// up to now while still open.
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if end := t.spans[0].end; end != 0 {
		return time.Duration(end - t.spans[0].start)
	}
	return time.Duration(t.now() - t.spans[0].start)
}

// Span is a cheap by-value handle on one span of one trace. The zero
// Span (from a disabled context) is inert: End and Annotate on it do
// nothing.
type Span struct {
	tr *Trace
	id SpanID
}

// Enabled reports whether the span belongs to a live trace. Use it to
// skip building annotation strings when tracing is off.
func (s Span) Enabled() bool { return s.tr != nil }

// End closes the span. Safe on the zero Span.
func (s Span) End() {
	if s.tr != nil {
		s.tr.end(s.id)
	}
}

// Annotate attaches a short detail string to the span (shard index, row
// counts, ...). Safe on the zero Span; the last note wins.
func (s Span) Annotate(note string) {
	if s.tr != nil {
		s.tr.annotate(s.id, note)
	}
}

// Child starts a child span of s directly, without a context — for call
// sites that hold a Span but no derived context. Safe on the zero Span
// (returns another zero Span).
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{tr: s.tr, id: s.tr.start(name, s.id)}
}

// ctxKey keys the trace reference in a context. An empty struct key
// boxes to a zero-size interface, so ctx.Value(ctxKey{}) allocates
// nothing.
type ctxKey struct{}

// ctxRef is the context payload: the trace plus the span the context is
// currently "inside", which new spans parent on.
type ctxRef struct {
	tr   *Trace
	span SpanID
}

// Context attaches the trace to ctx with the root span as the current
// parent. Everything downstream of the returned context traces into t.
func (t *Trace) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxRef{tr: t, span: 0})
}

// FromContext returns the trace carried by ctx, or nil when the request
// is untraced.
func FromContext(ctx context.Context) *Trace {
	if ref, ok := ctx.Value(ctxKey{}).(ctxRef); ok {
		return ref.tr
	}
	return nil
}

// StartSpan opens a span named name as a child of the span ctx currently
// carries, and returns a context carrying the new span as parent plus a
// handle to end it. When ctx carries no trace it returns ctx unchanged
// and the inert zero Span — one interface lookup, zero allocations —
// which is what keeps the instrumented hot paths allocation-free for
// untraced callers.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	ref, ok := ctx.Value(ctxKey{}).(ctxRef)
	if !ok {
		return ctx, Span{}
	}
	id := ref.tr.start(name, ref.span)
	return context.WithValue(ctx, ctxKey{}, ctxRef{tr: ref.tr, span: id}),
		Span{tr: ref.tr, id: id}
}
