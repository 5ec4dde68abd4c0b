package main

import (
	"sort"

	"simsearch/internal/cache"
	"simsearch/internal/router"
)

// perLayer lists every metric of a traced run, in print order, with its
// unit. A layer a workload does not pass through reads 0.
var perLayer = []struct{ name, unit string }{
	{"net.self_p50_ms", "ms"},
	{"distrib.self_p50_ms", "ms"},
	{"distrib.rpc_p50_ms", "ms"},
	{"distrib.rpc_p99_ms", "ms"},
	{"distrib.straggler_gap_p50_ms", "ms"},
	{"distrib.rpcs_per_request", "count/req"},
	{"httpapi.handler_p50_ms", "ms"},
	{"httpapi.self_p50_us", "us"},
	{"httpapi.resp_bytes_per_query", "B/query"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesced_ratio", "ratio"},
	{"cache.evictions_per_query", "count/query"},
	{"cache.hit_p50_us", "us"},
	{"exec.queue_wait_p50_us", "us"},
	{"exec.queue_wait_p99_us", "us"},
	{"exec.self_p50_us", "us"},
	{"exec.shard_skew_p50_us", "us"},
	{"router.search_p50_us", "us"},
	{"router.search_p99_us", "us"},
	{"router.explore_ratio", "ratio"},
	{"router.explore_busy_frac", "ratio"},
	{"router.route_share.bitparallel", "ratio"},
	{"router.route_share.trie", "ratio"},
	{"router.route_share.bktree", "ratio"},
	{"router.route_share.cascade", "ratio"},
	{"router.engines_built", "count"},
	{"cascade.search_p50_us", "us"},
	{"cascade.search_p99_us", "us"},
	{"cascade.candidates_per_query", "count/query"},
	{"cascade.freq_survivors_per_query", "count/query"},
	{"cascade.qgram_survivors_per_query", "count/query"},
	{"edit.verify_calls_per_query", "count/query"},
	{"edit.verify_useful_frac", "ratio"},
	{"lsm.insert_p50_us", "us"},
	{"lsm.insert_p99_us", "us"},
	{"lsm.delete_p50_us", "us"},
	{"lsm.search_p50_us", "us"},
	{"lsm.search_p99_us", "us"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.segments_end", "count"},
	{"lsm.delta_entries_end", "count"},
	{"go.alloc_kb_per_query", "KiB/query"},
	{"go.gc_cycles_per_1k_queries", "count/1kq"},
	{"go.gc_pause_total_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// layerResult assembles a traced run's metrics: span-derived and counter
// metrics from the traced pass, Go runtime counters from the untraced pass,
// and the tracing overhead between the two.
func layerResult(base, traced *phase) result {
	vals := spanMetrics(traced.spans)
	for k, v := range traced.layers {
		vals[k] = v
	}
	if q := float64(base.queries); q > 0 {
		vals["go.alloc_kb_per_query"] = float64(base.allocBytes) / 1024 / q
		vals["go.gc_cycles_per_1k_queries"] = float64(base.gcCycles) * 1000 / q
	}
	vals["go.gc_pause_total_ms"] = float64(base.gcPauseNs) / 1e6
	b50, _ := Quantile(Latencies(base.reads), 0.5)
	t50, _ := Quantile(Latencies(traced.reads), 0.5)
	if b50 > 0 {
		vals["trace.overhead_frac"] = t50/b50 - 1
	}
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{vals[l.name], l.unit}
	}
	e2e := endToEndResult(base)
	extra := map[string]metric{}
	for k, v := range e2e.Metrics {
		extra["untraced."+k] = v
	}
	for k, v := range e2e.extra {
		extra["untraced."+k] = v
	}
	tr := endToEndResult(traced)
	for k, v := range tr.Metrics {
		extra["traced."+k] = v
	}
	return result{
		Correct:   base.mismatches == 0 && traced.mismatches == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   m,
		extra:     extra,
	}
}

// usQ and msQ are span-duration quantiles in microseconds and milliseconds.
func usQ(ns []float64, q float64) float64 {
	v, _ := Quantile(ns, q)
	return v / 1e3
}

func msQ(ns []float64, q float64) float64 {
	v, _ := Quantile(ns, q)
	return v / 1e6
}

// spanMetrics derives every span-based per-layer metric present in spans.
func spanMetrics(spans []Span) map[string]float64 {
	kids := Children(spans)
	by := map[string][]Span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	durs := func(name string) []float64 {
		out := make([]float64, 0, len(by[name]))
		for _, s := range by[name] {
			out = append(out, float64(s.Dur()))
		}
		return out
	}
	selfs := func(name string) []float64 {
		out := make([]float64, 0, len(by[name]))
		for _, s := range by[name] {
			out = append(out, float64(SelfTime(s, kids[s.ID])))
		}
		return out
	}
	v := map[string]float64{}

	if len(by["client"]) > 0 {
		v["net.self_p50_ms"] = msQ(selfs("client"), 0.5)
	}
	if co := by["coord"]; len(co) > 0 {
		var self, gap []float64
		rpcs := 0
		for _, s := range co {
			var lo, hi int64 = -1, 0
			for _, c := range kids[s.ID] {
				if c.Name != "rpc" {
					continue
				}
				rpcs++
				d := c.Dur()
				if lo < 0 || d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			self = append(self, float64(s.Dur()-hi))
			if lo >= 0 {
				gap = append(gap, float64(hi-lo))
			}
		}
		v["distrib.self_p50_ms"] = msQ(self, 0.5)
		v["distrib.straggler_gap_p50_ms"] = msQ(gap, 0.5)
		v["distrib.rpcs_per_request"] = float64(rpcs) / float64(len(co))
		rd := durs("rpc")
		v["distrib.rpc_p50_ms"] = msQ(rd, 0.5)
		v["distrib.rpc_p99_ms"] = msQ(rd, 0.99)
	}
	if len(by["httpapi"]) > 0 {
		v["httpapi.handler_p50_ms"] = msQ(durs("httpapi"), 0.5)
		v["httpapi.self_p50_us"] = usQ(selfs("httpapi"), 0.5)
	}
	if cs := by["cache"]; len(cs) > 0 {
		var hits []float64
		for _, s := range cs {
			if len(kids[s.ID]) == 0 {
				hits = append(hits, float64(s.Dur()))
			}
		}
		v["cache.hit_p50_us"] = usQ(hits, 0.5)
	}
	if len(by["pool.wait"]) > 0 {
		w := durs("pool.wait")
		v["exec.queue_wait_p50_us"] = usQ(w, 0.5)
		v["exec.queue_wait_p99_us"] = usQ(w, 0.99)
	}
	if ex := by["exec"]; len(ex) > 0 {
		v["exec.self_p50_us"] = usQ(selfs("exec"), 0.5)
		var skew []float64
		for _, s := range ex {
			per := map[uint64][]int64{}
			for _, c := range kids[s.ID] {
				per[c.Key] = append(per[c.Key], c.Dur())
			}
			for _, ds := range per {
				if len(ds) < 2 {
					continue
				}
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				skew = append(skew, float64(ds[len(ds)-1]-ds[0]))
			}
		}
		v["exec.shard_skew_p50_us"] = usQ(skew, 0.5)
	}
	if len(by["router"]) > 0 {
		d := durs("router")
		v["router.search_p50_us"] = usQ(d, 0.5)
		v["router.search_p99_us"] = usQ(d, 0.99)
	}
	if len(by["cascade"]) > 0 {
		d := durs("cascade")
		v["cascade.search_p50_us"] = usQ(d, 0.5)
		v["cascade.search_p99_us"] = usQ(d, 0.99)
	}
	if len(by["lsm.insert"]) > 0 {
		d := durs("lsm.insert")
		v["lsm.insert_p50_us"] = usQ(d, 0.5)
		v["lsm.insert_p99_us"] = usQ(d, 0.99)
	}
	if len(by["lsm.delete"]) > 0 {
		v["lsm.delete_p50_us"] = usQ(durs("lsm.delete"), 0.5)
	}
	if len(by["lsm"]) > 0 {
		d := durs("lsm")
		v["lsm.search_p50_us"] = usQ(d, 0.5)
		v["lsm.search_p99_us"] = usQ(d, 0.99)
	}
	return v
}

// cacheLayers derives the cache counter metrics over the timed phase.
func cacheLayers(v map[string]float64, before []cache.Stats, after []cache.Stats, queries int) {
	var hits, misses, coal, ev uint64
	for i := range after {
		hits += after[i].Hits - before[i].Hits
		misses += after[i].Misses - before[i].Misses
		coal += after[i].Coalesced - before[i].Coalesced
		ev += after[i].Evictions - before[i].Evictions
	}
	if lookups := hits + misses + coal; lookups > 0 {
		v["cache.hit_ratio"] = float64(hits) / float64(lookups)
		v["cache.coalesced_ratio"] = float64(coal) / float64(lookups)
	}
	if queries > 0 {
		v["cache.evictions_per_query"] = float64(ev) / float64(queries)
	}
}

// cityLayers adds the router and cache counters of the timed phase, and the
// router's exploration over the cold prefix (e0 to e1), the only phase in
// which it explores.
func cityLayers(st *cityStack, e0, e1, r0 []router.Stats, c0 []cache.Stats, queries int) map[string]float64 {
	v := map[string]float64{}
	cacheLayers(v, c0, snapCaches(st.caches), queries)
	if queries > 0 {
		v["httpapi.resp_bytes_per_query"] = float64(st.bytes.Load()) / float64(queries)
	}
	var eq, ex uint64
	var busy, exBusy float64
	for i := range e1 {
		eq += e1[i].Queries - e0[i].Queries
		ex += e1[i].Explores - e0[i].Explores
		busy += float64(e1[i].Busy - e0[i].Busy)
		exBusy += float64(e1[i].ExploreBusy - e0[i].ExploreBusy)
	}
	if eq > 0 {
		v["router.explore_ratio"] = float64(ex) / float64(eq)
	}
	if busy > 0 {
		v["router.explore_busy_frac"] = exBusy / busy
	}
	var q uint64
	routes := map[string]uint64{}
	built := 0
	for i, r := range st.routers {
		a, b := r0[i], r.Stats()
		q += b.Queries - a.Queries
		for j, e := range b.Engines {
			routes[e.Name] += e.Routes - a.Engines[j].Routes
			if e.Built {
				built++
			}
		}
	}
	if q > 0 {
		for name, n := range routes {
			v["router.route_share."+name] = float64(n) / float64(q)
		}
	}
	v["router.engines_built"] = float64(built)
	return v
}
