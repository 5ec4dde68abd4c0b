package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's exported functions. Times are nanoseconds
// since the tracer's epoch.
type Span struct {
	ID, Parent uint64
	Req        uint64 // shared by every span of one client request
	Name       string // layer: client, coord, rpc, httpapi, cache, router, exec, engine, pool.wait, lsm, lsm.insert, lsm.delete
	Shard      int    // shard index, -1 when the layer is not per shard
	Key        uint64 // hash of the query text and k; 0 when not a query
	Start, End int64
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs install no wrappers at all.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
	// handoff carries a span reference across a layer that drops the
	// caller's context (the result cache runs misses under a context of its
	// own): the caller publishes its span under the query key, and the
	// wrapper below picks it up when its context carries none.
	handoff sync.Map // query key -> spanRef
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// NewID allocates a span or request id (never 0).
func (t *Tracer) NewID() uint64 { return t.ids.Add(1) }

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Reset drops the recorded spans (used between the cold and timed phases).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// spanRef identifies the span that is the parent of calls made under it.
type spanRef struct{ req, span uint64 }

type ctxKey struct{}

func withRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

func refFrom(ctx context.Context) (spanRef, bool) {
	if ctx == nil {
		return spanRef{}, false
	}
	r, ok := ctx.Value(ctxKey{}).(spanRef)
	return r, ok
}

// Headers carrying the request id and parent span across an HTTP hop.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

func setRefHeaders(h http.Header, r spanRef) {
	h.Set(hdrReq, strconv.FormatUint(r.req, 10))
	h.Set(hdrParent, strconv.FormatUint(r.span, 10))
}

func refFromHeaders(h http.Header) (spanRef, bool) {
	req, err1 := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	par, err2 := strconv.ParseUint(h.Get(hdrParent), 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}, false
	}
	return spanRef{req: req, span: par}, true
}

// queryKey hashes a query for hand-off and per-query grouping.
func queryKey(text string, k int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	h.Write([]byte{0, byte(k), byte(k >> 8)})
	return h.Sum64() | 1
}

// Dump writes the spans as tab-separated lines, one span per line, with a
// header naming the columns.
func Dump(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tshard\tkey\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%x\t%d\t%d\n",
			s.ID, s.Parent, s.Req, s.Name, s.Shard, s.Key, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Children indexes spans by parent id.
func Children(spans []Span) map[uint64][]Span {
	out := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// SelfTime is the span's duration minus the part of its interval covered by
// the given children. Children may nest in one another or overlap (parallel
// shard calls); each covered instant is subtracted once, and any part of a
// child outside the parent's interval is ignored.
func SelfTime(parent Span, children []Span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.Dur() - covered
}
