package main

// The wrappers below time calls into each layer from outside, through the
// layer's exported interfaces only: an http.Handler around each server, an
// http.RoundTripper for the coordinator's shard calls, a core.Searcher around
// the engine handed to each layer, an exec.Factory and a pool.Runner for the
// executor. Each wrapper keeps the method set of what it wraps (batching,
// live writes, Unwrap), so the program takes the same paths with and
// without it.

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"

	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/pool"
)

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n.Add(int64(n))
	return n, err
}

// traceHandler records one span per request served by h. The parent and
// request id come from the hop headers (or a fresh request id when absent);
// calls h makes see the new span through the request context. Requests to
// other endpoints than the search ones (writes, health, stats) get the span
// name with ".other" appended, so the layer's read metrics leave them out.
// Response bytes of search endpoints are added to bytes when it is non-nil.
func traceHandler(t *Tracer, name string, shard int, bytes *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := refFromHeaders(r.Header)
		if !ok {
			ref = spanRef{req: t.NewID()}
		}
		s := Span{ID: t.NewID(), Parent: ref.span, Req: ref.req, Name: name, Shard: shard, Start: t.Now()}
		if search := r.URL.Path == "/search" || r.URL.Path == "/search/batch"; !search {
			s.Name += ".other"
		} else if bytes != nil {
			w = countingWriter{ResponseWriter: w, n: bytes}
		}
		h.ServeHTTP(w, r.WithContext(withRef(r.Context(), spanRef{req: ref.req, span: s.ID})))
		s.End = t.Now()
		t.Add(s)
	})
}

// traceTransport records one span per shard call, from the request until
// the response body is closed, and carries the request id and the call's
// span to the shard server in headers. shardOf maps a request URL host to
// its shard index.
type traceTransport struct {
	t       *Tracer
	inner   http.RoundTripper
	shardOf map[string]int
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := refFrom(req.Context())
	shard, ok := tt.shardOf[req.URL.Host]
	if !ok {
		shard = -1
	}
	s := Span{ID: tt.t.NewID(), Parent: ref.span, Req: ref.req, Name: "rpc", Shard: shard, Start: tt.t.Now()}
	req = req.Clone(req.Context())
	setRefHeaders(req.Header, spanRef{req: ref.req, span: s.ID})
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		s.End = tt.t.Now()
		tt.t.Add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	t    *Tracer
	s    Span
	done atomic.Bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done.CompareAndSwap(false, true) {
		b.s.End = b.t.Now()
		b.t.Add(b.s)
	}
	return err
}

// tracedSearcher times Search and SearchContext on the wrapped engine.
type tracedSearcher struct {
	inner core.Searcher
	t     *Tracer
	name  string
	shard int
	// publish hands this span to the layer below through the tracer's
	// hand-off table; set on a wrapper around a layer that drops the
	// caller's context.
	publish bool
}

// wrapSearcher wraps eng, keeping its batch interface: an engine that
// answers batches itself is wrapped by a tracedBatcher, any other by a
// plain tracedSearcher, so the layer above takes the same path it would
// take without the wrapper.
func wrapSearcher(t *Tracer, name string, shard int, eng core.Searcher) core.Searcher {
	ts := &tracedSearcher{inner: eng, t: t, name: name, shard: shard}
	if _, ok := eng.(core.ContextBatcher); ok {
		return &tracedBatcher{ts}
	}
	return ts
}

func (s *tracedSearcher) Name() string          { return s.inner.Name() }
func (s *tracedSearcher) Len() int              { return s.inner.Len() }
func (s *tracedSearcher) Unwrap() core.Searcher { return s.inner }

func (s *tracedSearcher) Search(q core.Query) []core.Match {
	ms, _ := s.SearchContext(context.Background(), q)
	return ms
}

// begin opens a span under the caller's span, found in ctx or, when a layer
// above dropped the context, in the tracer's hand-off table.
func (s *tracedSearcher) begin(ctx context.Context, key uint64) (Span, context.Context) {
	ref, ok := refFrom(ctx)
	if !ok && key != 0 {
		if v, found := s.t.handoff.Load(key); found {
			ref = v.(spanRef)
		}
	}
	sp := Span{ID: s.t.NewID(), Parent: ref.span, Req: ref.req, Name: s.name, Shard: s.shard, Key: key, Start: s.t.Now()}
	if ctx == nil {
		ctx = context.Background()
	}
	return sp, withRef(ctx, spanRef{req: ref.req, span: sp.ID})
}

func (s *tracedSearcher) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	key := queryKey(q.Text, q.K)
	sp, cctx := s.begin(ctx, key)
	own := spanRef{req: sp.Req, span: sp.ID}
	// A coalesced duplicate finds the key taken; the lower span is then
	// attributed to the call that owns the flight.
	published := false
	if s.publish {
		_, taken := s.t.handoff.LoadOrStore(key, own)
		published = !taken
	}
	ms, err := core.SearchContext(cctx, s.inner, q)
	if published {
		s.t.handoff.CompareAndDelete(key, own)
	}
	sp.End = s.t.Now()
	s.t.Add(sp)
	return ms, err
}

// tracedBatcher adds the batch interface for engines that have one.
type tracedBatcher struct{ *tracedSearcher }

func (s *tracedBatcher) SearchBatchContext(ctx context.Context, qs []core.Query) ([]core.QueryResult, error) {
	sp, cctx := s.begin(ctx, 0)
	res, err := s.inner.(core.ContextBatcher).SearchBatchContext(cctx, qs)
	sp.End = s.t.Now()
	s.t.Add(sp)
	return res, err
}

// liveEngine is the write surface of the live executor that the HTTP layer
// discovers through the engine chain.
type liveEngine interface {
	core.Searcher
	Insert(s string) (int32, bool, error)
	Delete(s string) (bool, error)
	VersionString() string
	StringAt(id int32) (string, bool)
	LiveStats() exec.LiveStats
}

// tracedLive times searches, inserts and deletes on the live executor.
type tracedLive struct {
	*tracedSearcher
	live liveEngine
}

func wrapLive(t *Tracer, eng liveEngine) *tracedLive {
	return &tracedLive{tracedSearcher: &tracedSearcher{inner: eng, t: t, name: "lsm", shard: -1}, live: eng}
}

// write times one mutation. The live write API takes no context, so these
// spans carry no request id.
func (l *tracedLive) write(name string, call func()) {
	sp := Span{ID: l.t.NewID(), Name: name, Shard: -1, Start: l.t.Now()}
	call()
	sp.End = l.t.Now()
	l.t.Add(sp)
}

func (l *tracedLive) Insert(s string) (id int32, added bool, err error) {
	l.write("lsm.insert", func() { id, added, err = l.live.Insert(s) })
	return
}

func (l *tracedLive) Delete(s string) (changed bool, err error) {
	l.write("lsm.delete", func() { changed, err = l.live.Delete(s) })
	return
}

func (l *tracedLive) VersionString() string            { return l.live.VersionString() }
func (l *tracedLive) StringAt(id int32) (string, bool) { return l.live.StringAt(id) }
func (l *tracedLive) LiveStats() exec.LiveStats        { return l.live.LiveStats() }

// traceFactory wraps every shard engine the executor builds; shards are
// numbered in build order, which is shard order.
func traceFactory(t *Tracer, name string, f exec.Factory) exec.Factory {
	var next int
	return func(data []string) core.Searcher {
		i := next
		next++
		return wrapSearcher(t, name, i, f(data))
	}
}

// traceRunner records, for every task, how long it waited between the
// executor handing the batch to the pool and the task starting.
type traceRunner struct {
	t     *Tracer
	inner pool.Runner
}

func (r traceRunner) Name() string { return r.inner.Name() }

func (r traceRunner) Run(n int, task func(i int)) {
	queued := r.t.Now()
	r.inner.Run(n, func(i int) {
		r.t.Add(Span{ID: r.t.NewID(), Name: "pool.wait", Shard: -1, Start: queued, End: r.t.Now()})
		task(i)
	})
}
