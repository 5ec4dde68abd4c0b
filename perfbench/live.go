package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simsearch"
	"simsearch/internal/cache"
	"simsearch/internal/core"
	"simsearch/internal/exec"
	"simsearch/internal/httpapi"
	"simsearch/internal/pool"
)

// live-mixed: writes beside reads on the persistent live dictionary
// (OpenLive: two LSM shards, result cache on, WAL and segments in a fresh
// directory), seeded with cities. One closed-loop writer sends /insert and
// /delete (3:1) of fresh strings while one closed-loop reader sends /search
// until the writer is done.
// Each round is a fixed operation count on a fresh store, so the store
// always grows to the same size; rounds repeat until the timed phases add up
// to --seconds.
const (
	liveSeedN     = 50_000
	liveShards    = 2
	liveCache     = 4096
	liveWrites    = 10_000 // per round: 7,500 inserts, 2,500 deletes
	liveMaxReads  = 4000   // per round: the reader stops when the writer does, well before this
	liveCold      = 300    // reads in each round's cold prefix
	liveSample    = 20     // reads per round checked against the oracle, among the first 500
	liveMaxK      = 2
	liveMaxRounds = 40
)

// liveStack is one opened store behind its HTTP server.
type liveStack struct {
	url   string
	stop  func()
	close func() error
	stats func() exec.LiveStats
	cache *cache.Cache // traced runs only
	bytes atomic.Int64
}

func (s *liveStack) shutdown() error {
	s.stop()
	return s.close()
}

// buildLive opens the store as shipped (simsearch.OpenLive) or, traced, from
// the two constructors OpenLive composes, with wrappers between them.
func buildLive(dir string, seed []string, t *Tracer) (*liveStack, error) {
	st := &liveStack{}
	var h http.Handler
	if t == nil {
		lv, err := simsearch.OpenLive(dir, seed, liveShards, simsearch.Options{CacheSize: liveCache})
		if err != nil {
			return nil, err
		}
		st.close, st.stats = lv.Close, lv.Stats
		h = httpapi.New(lv, seed)
	} else {
		ex, err := exec.NewLive(exec.LiveOptions{
			Shards: liveShards, Seed: seed, Dir: dir,
			Runner: traceRunner{t: t, inner: pool.Fixed{Workers: runtime.GOMAXPROCS(0)}},
		})
		if err != nil {
			return nil, err
		}
		st.close, st.stats = ex.Close, ex.LiveStats
		st.cache = cache.New(wrapLive(t, ex), cache.Options{Capacity: liveCache, Version: ex.VersionString()})
		// The cache runs a miss under a context of its own, so the wrapper
		// above it hands its span to the one below through the tracer.
		top := wrapSearcher(t, "cache", -1, st.cache).(*tracedBatcher)
		top.publish = true
		h = traceHandler(t, "httpapi", -1, &st.bytes, httpapi.New(top, seed))
	}
	u, stop, err := serve(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.url, st.stop = u, stop
	return st, nil
}

// lifetime is when a string was inserted and deleted, as the client saw it:
// each event lies between its request being sent and acknowledged. Seed
// strings are live from the start (zero times).
type lifetime struct {
	id                     int32
	insSent, insAck        time.Time
	deleted                bool
	delSent, delAck        time.Time
	writeOp, deleteWriteOp int // indices of the write operations (-1 for seed)
}

// surely reports whether s was live for the whole of [from, to].
func (l *lifetime) surely(from, to time.Time) bool {
	return !l.insAck.After(from) && (!l.deleted || !l.delSent.Before(to))
}

// possibly reports whether s may have been live at some instant of [from, to].
func (l *lifetime) possibly(from, to time.Time) bool {
	return !l.insSent.After(to) && (!l.deleted || !l.delAck.Before(from))
}

// liveModel is every acknowledged write of one round.
type liveModel struct {
	life map[string]*lifetime
	byID map[int32]string
}

// universe returns every string ever bound, in id order, with their ids.
func (m *liveModel) universe() ([]string, []int32) {
	ids := make([]int32, 0, len(m.byID))
	for id := range m.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = m.byID[id]
	}
	return strs, ids
}

// liveOp is one planned write.
type liveOp struct {
	s      string
	insert bool
}

// planWrites draws a round's writes: three inserts of fresh strings to one
// delete of a live string (seed or inserted this round).
func planWrites(seed, fresh []string, n int, rng *rand.Rand) []liveOp {
	live := append([]string(nil), seed...)
	ops := make([]liveOp, 0, n)
	f := 0
	for len(ops) < n {
		if len(ops)%4 == 3 {
			i := rng.Intn(len(live))
			s := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ops = append(ops, liveOp{s: s, insert: false})
			continue
		}
		live = append(live, fresh[f])
		ops = append(ops, liveOp{s: fresh[f], insert: true})
		f++
	}
	return ops
}

// freshStrings returns n city names absent from the seed, in a fixed order.
// They are valid UTF-8, as a JSON write body requires.
func freshStrings(n int, seedSet map[string]bool, rnd int64) []string {
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for s := int64(0); len(out) < n; s++ {
		for _, c := range simsearch.GenerateCities(n, rnd*1000+s) {
			if !seedSet[c] && !seen[c] {
				seen[c] = true
				out = append(out, c)
				if len(out) == n {
					break
				}
			}
		}
	}
	return out
}

// dedup keeps the first occurrence of each string, as the live store does
// when it seeds.
func dedup(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	out := xs[:0:0]
	for _, s := range xs {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// liveRun accumulates one pass over the live-mixed rounds.
type liveRun struct {
	*phase
	cfg            config
	t              *Tracer
	seed           []string
	seedSet        map[string]bool
	queries        []simsearch.Query // every round's reads, cold prefix first
	reader, writer *client
	tmp            string

	writeLat             []float64
	writeTime            time.Duration
	diskRatio            []float64
	flushes, compactions uint64
	last                 exec.LiveStats
	respBytes            int64
	cache                cache.Stats // counter deltas over the timed phases (traced runs)
}

func runLive(cfg config, t *Tracer) (*phase, error) {
	seed := dedup(simsearch.GenerateCities(liveSeedN, cfg.seed))
	seedSet := make(map[string]bool, len(seed))
	for _, s := range seed {
		seedSet[s] = true
	}
	texts := simsearch.GenerateZipfQueries(seed, (liveCold+liveMaxReads)*liveMaxRounds, liveMaxK, 1.1, cfg.seed+1)
	krng := rand.New(rand.NewSource(cfg.seed + 2))
	qs := make([]simsearch.Query, len(texts))
	for i, s := range texts {
		qs[i] = simsearch.Query{Text: s, K: krng.Intn(liveMaxK + 1)}
	}
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cs := newClients(clients, t)
	defer closeClients(cs)
	r := &liveRun{phase: &phase{}, cfg: cfg, t: t, seed: seed, seedSet: seedSet,
		queries: qs, reader: cs[0], writer: cs[1], tmp: tmp}
	rounds := 0
	for ; rounds < liveMaxRounds; rounds++ {
		if rounds >= cfg.trials && r.timed >= time.Duration(cfg.seconds)*time.Second {
			break
		}
		if err := r.round(rounds); err != nil {
			return nil, err
		}
	}
	p := r.phase
	if err := checkSupport(p); err != nil {
		return nil, err
	}
	w50, _ := Quantile(r.writeLat, 0.5)
	w99, _ := Quantile(r.writeLat, 0.99)
	p.extra = map[string]metric{
		"write_p50_ms":             {w50, "ms"},
		"write_p99_ms":             {w99, "ms"},
		"writes_per_s":             {float64(len(r.writeLat)) / r.writeTime.Seconds(), "1/s"},
		"disk_bytes_per_live_byte": {Median(r.diskRatio), "ratio"},
		"rounds":                   {float64(rounds), "count"},
		"oracle_mismatch":          {float64(p.mismatches), "count"},
	}
	if t != nil {
		p.layers = map[string]float64{
			"httpapi.resp_bytes_per_query": float64(r.respBytes) / float64(max(p.queries, 1)),
			"lsm.flushes":                  float64(r.flushes),
			"lsm.compactions":              float64(r.compactions),
			"lsm.segments_end":             float64(r.last.Segments),
			"lsm.delta_entries_end":        float64(r.last.DeltaEntries),
		}
		cacheLayers(p.layers, []cache.Stats{{}}, []cache.Stats{r.cache}, p.queries)
	}
	return p, nil
}

// round runs one round on a fresh store: set-up, cold prefix, the timed
// writes and reads, then the oracle checks and the reopen check.
func (r *liveRun) round(round int) error {
	rs := r.cfg.seed*1000 + int64(round)
	fresh := freshStrings(liveWrites*3/4, r.seedSet, rs)
	plan := planWrites(r.seed, fresh, liveWrites, rand.New(rand.NewSource(rs)))
	rq := r.queries[round*(liveCold+liveMaxReads) : (round+1)*(liveCold+liveMaxReads)]
	dir, err := os.MkdirTemp(r.tmp, "live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	st, err := buildLive(dir, r.seed, r.t)
	if err != nil {
		return err
	}
	if err := waitHealthy(r.reader, st.url); err != nil {
		st.shutdown()
		return err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())

	samp := newSampled(sampleIndices(500, liveSample, rs+1))
	readSend := func(off int) sendFunc {
		return func(c *client, i int) (int, error) {
			q := rq[off+i]
			body, err := c.do(http.MethodGet, st.url+"/search?q="+url.QueryEscape(q.Text)+"&k="+strconv.Itoa(q.K), "", nil)
			if err == nil && off > 0 {
				samp.keep(i, body)
			}
			return 1, err
		}
	}
	cold := closedLoop([]*client{r.reader}, upTo(liveCold), readSend(0))
	r.warmups = append(r.warmups, wallTime(cold).Seconds())
	r.attempted += len(cold)
	r.failed += Failures(cold, nil)

	// The model: seed strings hold ids 0..n-1 in seed order. Only the
	// writer's goroutine updates it, and it is read after the writer ends.
	model := &liveModel{life: make(map[string]*lifetime, len(r.seed)+liveWrites), byID: make(map[int32]string, len(r.seed)+liveWrites)}
	for i, s := range r.seed {
		model.life[s] = &lifetime{id: int32(i), writeOp: -1, deleteWriteOp: -1}
		model.byID[int32(i)] = s
	}
	writeSend := func(c *client, i int) (int, error) {
		op := plan[i]
		path := "/delete"
		if op.insert {
			path = "/insert"
		}
		body, _ := json.Marshal(httpapi.MutateRequest{S: op.s})
		sent := time.Now()
		out, err := c.do(http.MethodPost, st.url+path, "application/json", body)
		ack := time.Now()
		if err != nil {
			return 0, err
		}
		var mr httpapi.MutateResponse
		if err := json.Unmarshal(out, &mr); err != nil || !mr.Changed || mr.S != op.s {
			return 0, fmt.Errorf("write %d: unexpected answer %s", i, out)
		}
		if op.insert {
			model.life[op.s] = &lifetime{id: mr.ID, insSent: sent, insAck: ack, writeOp: i, deleteWriteOp: -1}
			model.byID[mr.ID] = op.s
		} else {
			l := model.life[op.s]
			l.deleted, l.delSent, l.delAck, l.deleteWriteOp = true, sent, ack, i
		}
		return 0, nil
	}

	stats0 := st.stats()
	if r.t != nil {
		r.t.Reset()
	}
	st.bytes.Store(0)
	var c0 cache.Stats
	if st.cache != nil {
		c0 = st.cache.Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tStart := time.Now()
	var writes []Op
	var writeTime time.Duration
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = closedLoop([]*client{r.writer}, upTo(len(plan)), writeSend)
		writeTime = time.Since(tStart)
		writing.Store(false)
	}()
	// The reader runs back to back for as long as the writer does, so every
	// timed read meets concurrent writes, and a stall delays one read rather
	// than a queue of them.
	reads := closedLoop([]*client{r.reader}, func(i int) bool {
		return i < liveMaxReads && writing.Load()
	}, readSend(liveCold))
	wg.Wait()
	runtime.ReadMemStats(&m1)
	r.memDelta(&m0, &m1)
	r.addTrial(reads, wallTime(reads))
	r.writeLat = append(r.writeLat, Latencies(writes)...)
	r.writeTime += writeTime
	stats1 := st.stats()
	r.flushes += stats1.Flushes - stats0.Flushes
	r.compactions += stats1.Compactions - stats0.Compactions
	r.last = stats1
	if r.t != nil {
		r.spans = append(r.spans, r.t.Spans()...)
		r.respBytes += st.bytes.Load()
		c1 := st.cache.Stats()
		r.cache.Hits += c1.Hits - c0.Hits
		r.cache.Misses += c1.Misses - c0.Misses
		r.cache.Coalesced += c1.Coalesced - c0.Coalesced
		r.cache.Evictions += c1.Evictions - c0.Evictions
	}
	r.attempted += len(reads) + len(writes)

	// Oracle, outside the timed phase.
	strs, ids := model.universe()
	scan := simsearch.NewScan(strs)
	liveBytes := 0
	for s, l := range model.life {
		if !l.deleted {
			liveBytes += len(s)
		}
	}
	r.diskRatio = append(r.diskRatio, float64(dirBytes(dir))/float64(liveBytes))
	failedOps := map[int]bool{} // read ops by index; writes offset by len(reads)
	oracle := func(q simsearch.Query) []core.Match {
		ms := scan.Search(q)
		for i := range ms {
			ms[i].ID = ids[ms[i].ID]
		}
		return ms
	}
	// Reads made while writes ran: every string live throughout the read
	// must be in the answer, and every string in it must have been live at
	// some instant of the read, at its exact distance.
	for i, body := range samp.body {
		o := reads[i]
		if !checkConcurrentRead(rq[liveCold+i], body, oracle(rq[liveCold+i]), model, o.Sent, o.Done) {
			failedOps[i] = true
		}
	}
	// The same queries once writes stopped: byte-identical to the oracle.
	str := func(id int32) string { return model.byID[id] }
	final := func(q simsearch.Query) []core.Match {
		var out []core.Match
		for _, m := range oracle(q) {
			if !model.life[model.byID[m.ID]].deleted {
				out = append(out, m)
			}
		}
		return out
	}
	for i := range samp.body {
		q := rq[liveCold+i]
		body, err := r.reader.do(http.MethodGet, st.url+"/search?q="+url.QueryEscape(q.Text)+"&k="+strconv.Itoa(q.K), "", nil)
		if err != nil || !bytes.Equal(stripTook(body), expectSearch(q.Text, q.K, final(q), str)) {
			failedOps[i] = true
		}
	}
	if err := st.shutdown(); err != nil {
		return err
	}
	// Reopen from the directory: every acknowledged write must survive.
	lv, err := simsearch.OpenLive(dir, nil, liveShards, simsearch.Options{})
	if err != nil {
		return fmt.Errorf("reopening the live store: %w", err)
	}
	live := 0
	for s, l := range model.life {
		if !l.deleted {
			live++
		}
		if l.writeOp < 0 && l.deleteWriteOp < 0 {
			continue // untouched seed strings are covered by the replayed queries
		}
		got := lv.Search(simsearch.Query{Text: s, K: 0})
		ok := len(got) == 0
		if !l.deleted {
			ok = len(got) == 1 && got[0].ID == l.id
		}
		if !ok {
			for _, w := range []int{l.writeOp, l.deleteWriteOp} {
				if w >= 0 {
					failedOps[len(reads)+w] = true
				}
			}
		}
	}
	if lv.Len() != live {
		// A wrong live count with every write found intact: charge it to
		// the round's last write.
		failedOps[len(reads)+len(plan)-1] = true
	}
	for i := range samp.body {
		q := rq[liveCold+i]
		if !slices.Equal(lv.Search(q), final(q)) {
			failedOps[i] = true
		}
	}
	if err := lv.Close(); err != nil {
		return err
	}
	r.mismatches += len(failedOps)
	r.failed += Failures(append(append([]Op(nil), reads...), writes...), failedOps)
	return nil
}

// checkConcurrentRead accepts a /search answer given while writes ran: the
// matches must include every candidate surely live over [sent, done],
// include only candidates possibly live then, and the body must be exactly
// the server's encoding of that match set.
func checkConcurrentRead(q simsearch.Query, body []byte, cands []core.Match, m *liveModel, sent, done time.Time) bool {
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	want := map[int32]int{}
	for _, c := range cands {
		want[c.ID] = c.Dist
	}
	got := map[int32]bool{}
	for _, mj := range resp.Matches {
		s, ok := m.byID[mj.ID]
		d, cand := want[mj.ID]
		if !ok || !cand || d != mj.Dist || mj.String != s || !m.life[s].possibly(sent, done) {
			return false
		}
		got[mj.ID] = true
	}
	for _, c := range cands {
		if m.life[m.byID[c.ID]].surely(sent, done) && !got[c.ID] {
			return false
		}
	}
	ms := make([]core.Match, len(resp.Matches))
	for i, mj := range resp.Matches {
		ms[i] = core.Match{ID: mj.ID, Dist: mj.Dist}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return bytes.Equal(stripTook(body), expectSearch(q.Text, q.K, ms, func(id int32) string { return m.byID[id] }))
}
