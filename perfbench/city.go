package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"simsearch"
	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/distrib"
	"simsearch/internal/httpapi"
	"simsearch/internal/router"
)

// city-point: the full read stack under interactive point queries. A
// distrib.Coordinator fronts two shard servers, each httpapi over a result
// cache over the adaptive router on its half of the corpus. Load is a closed
// loop of two clients sending GET /search back to back.
const (
	cityN        = 100_000
	cityShards   = 2
	cityMaxRate  = 4000 // req/s no 2-vCPU host reaches (up to 2,200 measured); sizes the query pool
	cityCold     = 2000 // requests in the cold prefix, sent back to back
	cityCache    = 4096 // entries per shard cache (simserve's default)
	citySample   = 160  // responses checked against the oracle
	cityMaxEdits = 2    // edits applied to the corpus string a query is drawn from
	cityZipf     = 1.1
)

// cityStack is one constructed serving stack.
type cityStack struct {
	url     string
	stops   []func()
	routers []*router.Engine
	caches  []*cache.Cache
	bytes   atomic.Int64 // shard response bytes on search endpoints (traced runs)
}

func (s *cityStack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// shardTransport mirrors the transport distrib.New builds when
// Options.Transport is nil; traced runs wrap it.
func shardTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

func buildCity(data []string, t *Tracer) (*cityStack, error) {
	st := &cityStack{}
	var specs []distrib.ShardSpec
	shardOf := map[string]int{}
	for i, p := range distrib.Partition(len(data), cityShards) {
		part := data[p[0]:p[1]]
		r := router.New(part)
		var eng core.Searcher = r
		if t != nil {
			eng = wrapSearcher(t, "router", i, r)
		}
		c := cache.New(eng, cache.Options{Capacity: cityCache})
		eng = c
		if t != nil {
			eng = wrapSearcher(t, "cache", i, c)
		}
		var h http.Handler = httpapi.New(eng, part)
		if t != nil {
			h = traceHandler(t, "httpapi", i, &st.bytes, h)
		}
		u, stop, err := serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.stops = append(st.stops, stop)
		st.routers = append(st.routers, r)
		st.caches = append(st.caches, c)
		specs = append(specs, distrib.ShardSpec{Replicas: []string{u}})
		shardOf[u[len("http://"):]] = i
	}
	var opts distrib.Options
	if t != nil {
		opts.Transport = &traceTransport{t: t, inner: shardTransport(), shardOf: shardOf}
	}
	co, err := distrib.New(specs, opts)
	if err != nil {
		st.close()
		return nil, err
	}
	if err := co.Discover(context.Background()); err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = co
	if t != nil {
		h = traceHandler(t, "coord", -1, nil, co)
	}
	u, stop, err := serve(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.stops = append(st.stops, stop)
	st.url = u
	return st, nil
}

// cityInputs is one trial's corpus and requests: the cold prefix first, then
// the timed requests.
type cityInputs struct {
	data    []string
	qs      []simsearch.Query
	skipped int
}

// cityInputsFor makes a trial's inputs from its own seed.
func cityInputsFor(seed int64, n int) cityInputs {
	data := simsearch.GenerateCities(cityN, seed)
	texts, skipped := textQueries(data, n, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	qs := make([]simsearch.Query, len(texts))
	for i, s := range texts {
		qs[i] = simsearch.Query{Text: s, K: rng.Intn(4)}
	}
	return cityInputs{data: data, qs: qs, skipped: skipped}
}

func runCity(cfg config, t *Tracer) (*phase, error) {
	// Each trial builds its own stack over its own corpus and requests, made
	// from a seed derived from --seed, warms it with the cold prefix and then
	// offers its share of --seconds of traffic. The router's fitted policy
	// depends on the corpus: on some corpora it sends a whole regime to a
	// slow arm in about half of the stacks built (see README.md). Across
	// trials on different corpora such a stack is one trial of several, so
	// the median over trials does not flip with the seed.
	trialTime := time.Duration(cfg.seconds) * time.Second / time.Duration(cfg.trials)
	perTrial := int(cityMaxRate * trialTime.Seconds())
	trialSeed := func(s int) int64 { return cfg.seed*100 + 10*int64(s) }
	cs := newClients(clients, t)
	defer closeClients(cs)

	p := &phase{}
	var base string
	var in cityInputs
	var samp *sampled
	// send issues request off+i of the current trial; timed requests are
	// numbered after the cold prefix.
	send := func(off int) sendFunc {
		return func(c *client, i int) (int, error) {
			q := in.qs[off+i]
			body, err := c.do(http.MethodGet, base+"/search?q="+url.QueryEscape(q.Text)+"&k="+strconv.Itoa(q.K), "", nil)
			if err == nil && off > 0 {
				samp.keep(i, body)
			}
			return 1, err
		}
	}
	// build constructs a stack and times it until the coordinator answers.
	build := func() (*cityStack, error) {
		runtime.GC()
		start := time.Now()
		stack, err := buildCity(in.data, t)
		if err != nil {
			return nil, err
		}
		if err := waitHealthy(cs[0], stack.url); err != nil {
			stack.close()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		return stack, nil
	}
	in = cityInputsFor(trialSeed(0), cityCold+perTrial)
	for s := 0; s < cfg.setups; s++ {
		stack, err := build()
		if err != nil {
			return nil, err
		}
		stack.close()
	}
	checked, mismatches, skipped := 0, 0, 0
	for s := 0; s < cfg.trials; s++ {
		if s > 0 {
			in = cityInputsFor(trialSeed(s), cityCold+perTrial)
		}
		skipped += in.skipped
		// The sample is drawn among the first 1,000 timed requests, which
		// every trial sends.
		samp = newSampled(sampleIndices(1000, (citySample+cfg.trials-1)/cfg.trials, trialSeed(s)+3))
		stack, err := build()
		if err != nil {
			return nil, err
		}
		base = stack.url
		// The cold prefix runs back to back, so its wall time is the cost
		// of lazy engine builds and first probes, not the offered rate.
		explore0 := snapRouters(stack.routers)
		cold := closedLoop(cs, upTo(cityCold), send(0))
		p.warmups = append(p.warmups, wallTime(cold).Seconds())
		p.attempted += len(cold)
		p.failed += Failures(cold, nil)
		// The timed phase measures the fitted routing policy: exploration
		// is paused, as the router's SetExploreEvery documents for
		// latency-critical windows (routing and feedback go on). With it
		// running, its probe bursts made the p99 vary two-fold from run to
		// run; its cost shows in warmup_s and in the traced explore metrics,
		// which cover the cold prefix.
		explore1 := snapRouters(stack.routers)
		for _, r := range stack.routers {
			r.SetExploreEvery(0)
		}

		routers0 := snapRouters(stack.routers)
		caches0 := snapCaches(stack.caches)
		stack.bytes.Store(0)
		if t != nil {
			t.Reset()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		end := start.Add(trialTime)
		timed := closedLoop(cs, func(i int) bool {
			return i < perTrial && time.Now().Before(end)
		}, send(cityCold))
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		p.memDelta(&m0, &m1)
		p.addTrial(timed, d)
		if t != nil {
			p.spans = append(p.spans, t.Spans()...)
			p.layers = cityLayers(stack, explore0, explore1, routers0, caches0, len(timed))
		}
		stack.close()

		// Oracle, outside every timed phase: sampled responses must equal,
		// byte for byte, what the DP scan over the trial's corpus answers.
		mism := map[int]bool{}
		scan := simsearch.NewScan(in.data)
		str := func(id int32) string { return in.data[id] }
		for i, body := range samp.body {
			q := in.qs[cityCold+i]
			want := expectSearch(q.Text, q.K, scan.Search(q), str)
			if !bytes.Equal(stripTook(body), want) {
				mism[i] = true
				if mismatches+len(mism) <= 3 {
					fmt.Fprintf(stderr, "perfbench: oracle mismatch on trial %d request %d (q=%q k=%d):\n got  %s want %s", s, i, q.Text, q.K, stripTook(body), want)
				}
			}
		}
		checked += len(samp.body)
		mismatches += len(mism)
		p.failed += Failures(timed, mism)
	}
	p.attempted += len(p.reads)
	if err := checkSupport(p); err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "perfbench: city-point skipped %d generated queries that are not valid UTF-8 (distrib.Coordinator corrupts them; see README.md)\n", skipped)
	}
	p.mismatches = mismatches
	p.extra = map[string]metric{
		"oracle_checked":       {float64(checked), "count"},
		"oracle_mismatch":      {float64(mismatches), "count"},
		"queries_skipped_utf8": {float64(skipped), "count"},
	}
	return p, nil
}

// textQueries draws n Zipf-skewed city queries and keeps only those that are
// valid UTF-8, drawing again under a derived seed until it has n; skipped
// counts the others. GenerateZipfQueries mutates bytes, so about a third of
// its city queries split a multi-byte character, and distrib.Coordinator
// corrupts such a query on the shard hop (its JSON re-encoding turns each
// invalid byte into U+FFFD), so the shards answer a different query.
// city-point measures the serving stack on text queries; README.md records
// the defect.
func textQueries(data []string, n int, seed int64) (qs []string, skipped int) {
	qs = make([]string, 0, n)
	for round := int64(0); len(qs) < n; round++ {
		for _, s := range simsearch.GenerateZipfQueries(data, n, cityMaxEdits, cityZipf, seed+1000*round) {
			if len(qs) == n {
				break
			}
			if utf8.ValidString(s) {
				qs = append(qs, s)
			} else {
				skipped++
			}
		}
	}
	return qs, skipped
}

// Stats snapshots, so per-layer counters cover one phase only.
func snapRouters(rs []*router.Engine) []router.Stats {
	out := make([]router.Stats, len(rs))
	for i, r := range rs {
		out[i] = r.Stats()
	}
	return out
}

func snapCaches(cs []*cache.Cache) []cache.Stats {
	out := make([]cache.Stats, len(cs))
	for i, c := range cs {
		out[i] = c.Stats()
	}
	return out
}
