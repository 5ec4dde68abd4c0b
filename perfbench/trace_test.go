package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"simsearch/internal/core"
)

func span(id, parent uint64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Shard: -1}
}

func TestSelfTimeSubtractsCoveredIntervalsOnce(t *testing.T) {
	p := span(1, 0, "p", 0, 100)
	cases := []struct {
		name string
		kids []Span
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []Span{span(2, 1, "c", 0, 10), span(3, 1, "c", 20, 30)}, 80},
		{"overlapping", []Span{span(2, 1, "c", 10, 30), span(3, 1, "c", 20, 50)}, 60},
		{"nested", []Span{span(2, 1, "c", 10, 50), span(3, 1, "c", 20, 30)}, 60},
		{"touching", []Span{span(2, 1, "c", 10, 20), span(3, 1, "c", 20, 40)}, 70},
		{"outside parent", []Span{span(2, 1, "c", 90, 120), span(3, 1, "c", -5, 5)}, 85},
		{"unsorted", []Span{span(2, 1, "c", 60, 70), span(3, 1, "c", 10, 20), span(4, 1, "c", 15, 65)}, 40},
	}
	for _, c := range cases {
		if got := SelfTime(p, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// Per-layer self times come from the span tree: only direct children are
// subtracted, so a grandchild inside its parent changes nothing.
func TestSpanMetricsSelfTimes(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		span(1, 0, "client", 0, 10*ms),
		span(2, 1, "coord", 1*ms, 9*ms),
		span(3, 2, "rpc", 2*ms, 5*ms),
		span(4, 2, "rpc", 2*ms, 8*ms),
		span(5, 4, "httpapi", 3*ms, 7*ms),
		span(6, 5, "cache", 4*ms, 6*ms),
	}
	v := spanMetrics(spans)
	check := func(k string, want float64) {
		if got := v[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	check("net.self_p50_ms", 2)              // 10ms client minus the 8ms coordinator span
	check("distrib.self_p50_ms", 2)          // 8ms handler minus the slowest (6ms) RPC
	check("distrib.straggler_gap_p50_ms", 3) // 6ms - 3ms
	check("distrib.rpcs_per_request", 2)
	check("httpapi.handler_p50_ms", 4)
	check("httpapi.self_p50_us", 2000) // 4ms handler minus its 2ms Searcher call
	check("cache.hit_p50_us", 2000)    // no child: a hit
}

// The wrappers carry one request id from the client through the HTTP hop
// and the engine chain, and keep the wrapped engine's batch interface.
func TestWrappersCarryRequestID(t *testing.T) {
	tr := NewTracer()
	eng := core.NewSequential([]string{"abc", "abd", "xyz"})
	inner := wrapSearcher(tr, "router", 0, eng)
	if _, ok := inner.(core.ContextBatcher); ok != isBatcher(eng) {
		t.Fatalf("wrapper batch interface = %v, engine's = %v", ok, isBatcher(eng))
	}
	h := traceHandler(tr, "httpapi", 0, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		core.SearchContext(r.Context(), inner, core.Query{Text: "abc", K: 1})
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := &client{hc: srv.Client(), t: tr}
	if _, err := c.do(http.MethodGet, srv.URL+"/search", "", nil); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	cl, hs, rs := byName["client"], byName["httpapi"], byName["router"]
	if cl.Req == 0 || hs.Req != cl.Req || rs.Req != cl.Req {
		t.Errorf("request ids client=%d httpapi=%d router=%d, want one shared id", cl.Req, hs.Req, rs.Req)
	}
	if hs.Parent != cl.ID || rs.Parent != hs.ID {
		t.Errorf("parents httpapi=%d router=%d, want %d and %d", hs.Parent, rs.Parent, cl.ID, hs.ID)
	}
	if rs.Key != queryKey("abc", 1) {
		t.Error("engine span lacks its query key")
	}
}

func isBatcher(e core.Searcher) bool {
	_, ok := e.(core.ContextBatcher)
	return ok
}

// A layer that drops the caller's context (the result cache runs misses on
// a context of its own) is bridged by the hand-off table.
func TestHandoffBridgesDroppedContext(t *testing.T) {
	tr := NewTracer()
	lower := wrapSearcher(tr, "lsm", -1, core.NewSequential([]string{"abc"}))
	dropper := dropCtx{lower}
	upper := wrapSearcher(tr, "cache", -1, dropper).(*tracedSearcher)
	upper.publish = true
	ctx := withRef(context.Background(), spanRef{req: 7, span: 99})
	if _, err := upper.SearchContext(ctx, core.Query{Text: "abc", K: 0}); err != nil {
		t.Fatal(err)
	}
	var up, low Span
	for _, s := range tr.Spans() {
		switch s.Name {
		case "cache":
			up = s
		case "lsm":
			low = s
		}
	}
	if low.Parent != up.ID || low.Req != 7 {
		t.Errorf("lower span parent=%d req=%d, want parent %d req 7", low.Parent, low.Req, up.ID)
	}
	if _, ok := tr.handoff.Load(queryKey("abc", 0)); ok {
		t.Error("hand-off entry left behind after the call")
	}
}

// dropCtx searches its engine under a fresh context, as the cache does.
type dropCtx struct{ core.Searcher }

func (d dropCtx) SearchContext(_ context.Context, q core.Query) ([]core.Match, error) {
	return core.SearchContext(context.Background(), d.Searcher, q)
}
