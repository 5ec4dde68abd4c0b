package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"simsearch"
	"simsearch/internal/cascade"
	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/httpapi"
	"simsearch/internal/pool"
)

// dna-batch: an engine- and kernel-heavy offline batch job. One httpapi
// server over exec.Sharded (two shards of the filter cascade, no cache) on
// DNA reads; a closed loop of two clients posts /search/batch.
const (
	dnaN        = 75_000
	dnaShards   = 2
	dnaBatch    = 16   // distinct queries per batch
	dnaCold     = 24   // batches in the cold prefix
	dnaMinReads = 1300 // a p99 needs 1,000; more spread it over more of the host's bursts
	dnaSample   = 8    // batches checked against the oracle
	dnaMaxEdits = 3
)

type dnaStack struct {
	url   string
	stop  func()
	ex    *exec.Sharded
	bytes atomic.Int64
}

func buildDNA(data []string, t *Tracer) (*dnaStack, error) {
	st := &dnaStack{}
	opts := exec.Options{Shards: dnaShards, Factory: exec.CascadeFactory()}
	if t != nil {
		opts.Factory = traceFactory(t, "cascade", opts.Factory)
		opts.Runner = traceRunner{t: t, inner: pool.Fixed{Workers: runtime.GOMAXPROCS(0)}}
	}
	st.ex = exec.New(data, opts)
	var eng core.Searcher = st.ex
	if t != nil {
		eng = wrapSearcher(t, "exec", -1, st.ex)
	}
	var h http.Handler = httpapi.New(eng, data)
	if t != nil {
		h = traceHandler(t, "httpapi", -1, &st.bytes, h)
	}
	u, stop, err := serve(h)
	if err != nil {
		return nil, err
	}
	st.url, st.stop = u, stop
	return st, nil
}

// cascades returns the shard engines' cascade statistics.
func (s *dnaStack) cascades() []cascade.Stats {
	var out []cascade.Stats
	for _, e := range s.ex.ShardEngines() {
		for e != nil {
			if c, ok := e.(*core.Cascade); ok {
				out = append(out, c.CascadeEngine().Stats())
				break
			}
			u, ok := e.(interface{ Unwrap() core.Searcher })
			if !ok {
				break
			}
			e = u.Unwrap()
		}
	}
	return out
}

// dnaBatches draws batches of distinct queries with k in 1..3.
func dnaBatches(data []string, n int, seed int64) [][]simsearch.Query {
	texts := simsearch.GenerateQueries(data, n*dnaBatch*2, dnaMaxEdits, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([][]simsearch.Query, 0, n)
	next := 0
	for len(out) < n {
		seen := map[string]bool{}
		var b []simsearch.Query
		for len(b) < dnaBatch {
			s := texts[next%len(texts)]
			next++
			if seen[s] {
				continue
			}
			seen[s] = true
			b = append(b, simsearch.Query{Text: s, K: 1 + rng.Intn(3)})
		}
		out = append(out, b)
	}
	return out
}

func batchBody(b []simsearch.Query) []byte {
	req := httpapi.BatchRequest{Queries: make([]httpapi.BatchQuery, len(b))}
	for i, q := range b {
		k := q.K
		req.Queries[i] = httpapi.BatchQuery{Q: q.Text, K: &k}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // DNA strings are ASCII
	}
	return body
}

func runDNA(cfg config, t *Tracer) (*phase, error) {
	data := simsearch.GenerateDNAReads(dnaN, cfg.seed)
	// Enough batches for the timed phase at several times the rate a 2-vCPU
	// host sustains; the phase stops at --seconds (and 1,300 batches).
	limit := max(dnaMinReads*3, 150*cfg.seconds)
	batches := dnaBatches(data, dnaCold+limit, cfg.seed+1)
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = batchBody(b)
	}
	cs := newClients(clients, t)
	defer closeClients(cs)

	var stack *dnaStack
	recorded := newSampled(nil) // nothing is sampled from the cold prefix
	send := func(off int) sendFunc {
		return func(c *client, i int) (int, error) {
			body, err := c.do(http.MethodPost, stack.url+"/search/batch", "application/json", bodies[off+i])
			if err == nil && off > 0 {
				recorded.keep(i, body)
			}
			return dnaBatch, err
		}
	}
	p := &phase{}
	// Every construction is timed and warmed with the cold prefix; the
	// last one then runs the single timed phase, which needs its 1,300
	// batches on one stack.
	for s := 0; s <= cfg.setups; s++ {
		if stack != nil {
			stack.stop()
			stack = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if stack, err = buildDNA(data, t); err != nil {
			return nil, err
		}
		if err := waitHealthy(cs[0], stack.url); err != nil {
			stack.stop()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		cold := closedLoop(cs, upTo(dnaCold), send(0))
		p.warmups = append(p.warmups, wallTime(cold).Seconds())
		p.attempted += len(cold)
		p.failed += Failures(cold, nil)
	}
	defer stack.stop()

	// The sample is drawn from the batches every timed phase sends.
	recorded = newSampled(sampleIndices(dnaMinReads, dnaSample, cfg.seed+3))
	casc0 := stack.cascades()
	stack.bytes.Store(0)
	if t != nil {
		t.Reset()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds) * time.Second)
	timed := closedLoop(cs, func(i int) bool {
		return i < limit && (i < dnaMinReads || time.Now().Before(end))
	}, send(dnaCold))
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	p.memDelta(&m0, &m1)
	p.addTrial(timed, d)
	if err := checkSupport(p); err != nil {
		return nil, err
	}
	p.attempted += len(timed)
	if t != nil {
		p.spans = t.Spans()
		p.layers = dnaLayers(stack, casc0, p.queries)
	}

	mism := map[int]bool{}
	scan := simsearch.NewScan(data)
	str := func(id int32) string { return data[id] }
	for i, body := range recorded.body {
		b := batches[dnaCold+i]
		per := make([][]simsearch.Match, len(b))
		for j, q := range b {
			per[j] = scan.Search(q)
		}
		want := expectBatch(b, per, str)
		if !bytes.Equal(stripTook(body), want) {
			mism[i] = true
			if len(mism) <= 3 {
				fmt.Fprintf(stderr, "perfbench: oracle mismatch on batch %d:\n got  %s want %s", i, stripTook(body), want)
			}
		}
	}
	p.mismatches = len(mism)
	p.failed += Failures(timed, mism)
	p.extra = map[string]metric{
		"oracle_checked":  {float64(len(recorded.body) * dnaBatch), "count"},
		"oracle_mismatch": {float64(len(mism)), "count"},
		"batches_per_s":   {float64(len(timed)) / p.timed.Seconds(), "1/s"},
	}
	return p, nil
}

// dnaLayers adds the cascade and kernel counters of the timed phase, per
// client query (each query runs once on every shard).
func dnaLayers(st *dnaStack, before []cascade.Stats, queries int) map[string]float64 {
	v := map[string]float64{}
	var cand, freq, qg, match uint64
	for i, a := range st.cascades() {
		b := before[i]
		cand += a.Candidates - b.Candidates
		freq += a.FreqSurvivors - b.FreqSurvivors
		qg += a.QGramSurvivors - b.QGramSurvivors
		match += a.Matches - b.Matches
	}
	if q := float64(queries); q > 0 {
		v["cascade.candidates_per_query"] = float64(cand) / q
		v["cascade.freq_survivors_per_query"] = float64(freq) / q
		v["cascade.qgram_survivors_per_query"] = float64(qg) / q
		v["edit.verify_calls_per_query"] = float64(qg) / q
		v["httpapi.resp_bytes_per_query"] = float64(st.bytes.Load()) / q
	}
	if qg > 0 {
		v["edit.verify_useful_frac"] = float64(match) / float64(qg)
	}
	return v
}
