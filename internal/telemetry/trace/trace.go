// Package trace is a lightweight causal tracer: value-type contexts carry
// a trace ID and parent span ID from a batch-API entry point down through
// shard runs, block crypts and pulse trains, and completed spans land in
// a fixed-capacity lock-free ring (same seq-validated slot protocol as
// telemetry.Recorder). Traces export as Chrome trace-event JSON, loadable
// in Perfetto (see export.go).
//
// The package follows the telemetry nil-receiver discipline: a nil *Tracer
// hands out zero-value Contexts and Spans, and every method no-ops on the
// zero value, so detached tracing costs one pointer test per call site and
// zero allocations.
//
// Side-channel note: spans carry only interned call-site metadata, wall
// times, lane hints and two free integer attributes (counts, indices).
// Nothing here is keyed by address, plaintext or key material.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanMeta identifies one span call site: a subsystem and a span name.
// Callers create one per site (a package-level var) so starting and ending
// a span stores a single interned pointer and allocates nothing.
type SpanMeta struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
}

// SpanRecord is one completed span (or instant event, DurNs == -1) read
// back out of the ring.
type SpanRecord struct {
	Seq       uint64 `json:"seq"`
	TraceID   uint64 `json:"trace_id"`
	SpanID    uint64 `json:"span_id"`
	ParentID  uint64 `json:"parent_id"` // 0 for roots
	Lane      uint32 `json:"lane"`
	StartNano int64  `json:"start_unix_nano"`
	DurNs     int64  `json:"dur_ns"` // -1 for instant events
	A0        int64  `json:"a0,omitempty"`
	A1        int64  `json:"a1,omitempty"`
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
}

// tslot is one ring entry; all fields atomic, seq is the publication word
// (readers accept a slot only when seq is stable across the payload copy).
type tslot struct {
	seq     atomic.Uint64
	traceID atomic.Uint64
	spanID  atomic.Uint64
	parent  atomic.Uint64
	lane    atomic.Uint32
	start   atomic.Int64
	dur     atomic.Int64
	a0      atomic.Int64
	a1      atomic.Int64
	meta    atomic.Pointer[SpanMeta]
}

// Tracer owns the span ring and the ID allocator. All methods are safe for
// concurrent use and safe on a nil receiver.
type Tracer struct {
	slots []tslot
	mask  uint64
	head  atomic.Uint64 // next ring sequence to claim + 1
	ids   atomic.Uint64 // span/trace ID allocator; 0 is reserved for "none"
	now   func() int64

	laneMu    sync.Mutex
	laneNames map[uint32]string
}

// DefaultRingSize is the span ring capacity of a New tracer.
const DefaultRingSize = 1 << 14

// New returns a tracer whose ring holds at least capacity completed spans
// (rounded up to a power of two; capacity <= 0 selects DefaultRingSize).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{
		slots:     make([]tslot, n),
		mask:      uint64(n - 1),
		now:       func() int64 { return time.Now().UnixNano() },
		laneNames: make(map[uint32]string),
	}
}

// SetClock replaces the tracer's time source (unix nanoseconds). Call
// before spans are started; not synchronized against concurrent use.
func (t *Tracer) SetClock(now func() int64) {
	if t == nil || now == nil {
		return
	}
	t.now = now
}

// Cap returns the ring capacity (0 on nil).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// NameLane attaches a human-readable name to a lane; exported traces show
// it as the Perfetto thread name. Safe concurrently and on nil.
func (t *Tracer) NameLane(lane uint32, name string) {
	if t == nil {
		return
	}
	t.laneMu.Lock()
	t.laneNames[lane] = name
	t.laneMu.Unlock()
}

// laneName returns the registered lane name or a generated fallback.
func (t *Tracer) laneName(lane uint32) string {
	t.laneMu.Lock()
	name, ok := t.laneNames[lane]
	t.laneMu.Unlock()
	if ok {
		return name
	}
	return fmt.Sprintf("lane %d", lane)
}

// record claims the next slot and publishes one completed span.
func (t *Tracer) record(traceID, spanID, parent uint64, lane uint32, meta *SpanMeta, start, dur, a0, a1 int64) {
	if t == nil || meta == nil {
		return
	}
	seq := t.head.Add(1)
	s := &t.slots[(seq-1)&t.mask]
	s.seq.Store(0) // invalidate for readers while the payload is in flight
	s.traceID.Store(traceID)
	s.spanID.Store(spanID)
	s.parent.Store(parent)
	s.lane.Store(lane)
	s.start.Store(start)
	s.dur.Store(dur)
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.meta.Store(meta)
	s.seq.Store(seq) // publish
}

// Spans returns up to max recent completed spans, oldest first. Slots torn
// by concurrent writers are skipped.
func (t *Tracer) Spans(max int) []SpanRecord {
	if t == nil || max <= 0 {
		return nil
	}
	head := t.head.Load()
	n := uint64(len(t.slots))
	if uint64(max) < n {
		n = uint64(max)
	}
	if head < n {
		n = head
	}
	out := make([]SpanRecord, 0, n)
	for seq := head - n + 1; seq <= head && head > 0; seq++ {
		s := &t.slots[(seq-1)&t.mask]
		got := s.seq.Load()
		if got == 0 {
			continue
		}
		rec := SpanRecord{
			Seq:       got,
			TraceID:   s.traceID.Load(),
			SpanID:    s.spanID.Load(),
			ParentID:  s.parent.Load(),
			Lane:      s.lane.Load(),
			StartNano: s.start.Load(),
			DurNs:     s.dur.Load(),
			A0:        s.a0.Load(),
			A1:        s.a1.Load(),
		}
		m := s.meta.Load()
		if s.seq.Load() != got || m == nil {
			continue // overwritten mid-copy: discard the torn read
		}
		rec.Subsystem = m.Subsystem
		rec.Name = m.Name
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Context is a value-type causal position inside one trace: the trace ID,
// the span that any child started from it will name as its parent, and a
// lane hint for export grouping. The zero Context is detached: Start and
// Event on it are no-ops and allocate nothing.
type Context struct {
	tr      *Tracer
	traceID uint64
	spanID  uint64
	lane    uint32
}

// Enabled reports whether spans started from this context are recorded.
func (c Context) Enabled() bool { return c.tr != nil }

// Lane returns the context's lane hint.
func (c Context) Lane() uint32 { return c.lane }

// WithLane returns a copy of the context targeting the given lane. Lanes
// are export-grouping hints only (Perfetto "threads"); they do not affect
// causality. A detached context stays detached.
func (c Context) WithLane(lane uint32) Context {
	c.lane = lane
	return c
}

// Root starts a new trace: a fresh trace ID whose root span has no parent.
// On a nil tracer the returned Span is a no-op value.
func (t *Tracer) Root(meta *SpanMeta) Span {
	if t == nil {
		return Span{}
	}
	id := t.ids.Add(1)
	return Span{
		ctx:   Context{tr: t, traceID: id, spanID: id},
		meta:  meta,
		start: t.now(),
	}
}

// Start begins a child span of this context. Recording happens at End; an
// unfinished span is never visible in the ring.
func (c Context) Start(meta *SpanMeta) Span {
	if c.tr == nil {
		return Span{}
	}
	return Span{
		ctx:    Context{tr: c.tr, traceID: c.traceID, spanID: c.tr.ids.Add(1), lane: c.lane},
		parent: c.spanID,
		meta:   meta,
		start:  c.tr.now(),
	}
}

// Event records an instant event (DurNs == -1) attached to this context's
// span, on the context's lane.
func (c Context) Event(meta *SpanMeta, a0, a1 int64) {
	if c.tr == nil {
		return
	}
	id := c.tr.ids.Add(1)
	c.tr.record(c.traceID, id, c.spanID, c.lane, meta, c.tr.now(), -1, a0, a1)
}

// Span is an in-flight span. It is a value type: starting and ending one
// allocates nothing, and the zero Span no-ops.
type Span struct {
	ctx    Context
	parent uint64
	meta   *SpanMeta
	start  int64
}

// Context returns the causal context for starting children of this span.
func (sp Span) Context() Context { return sp.ctx }

// End records the span with its measured duration and two free integer
// attributes.
func (sp Span) End(a0, a1 int64) {
	t := sp.ctx.tr
	if t == nil {
		return
	}
	dur := t.now() - sp.start
	if dur < 0 {
		dur = 0
	}
	t.record(sp.ctx.traceID, sp.ctx.spanID, sp.parent, sp.ctx.lane, sp.meta, sp.start, dur, a0, a1)
}
