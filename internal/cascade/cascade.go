// Package cascade implements the paper's §6 future-work list as one serving
// engine: a filter cascade that funnels every query through
//
//	length bucket -> frequency-vector filter -> q-gram count filter -> verify
//
// where verify is the bounded Myers kernel. All query-side state — the
// frequency vector, the q-gram profile, and the compiled pattern — is built
// once per query; every per-candidate step is O(1) or O(len(candidate)) with
// zero allocations. Candidate-side state (per-slot frequency vectors, the
// length-bucketed layout) is precomputed at build time, PETER-style
// (Rheinländer et al., cited in PAPER §6).
//
// Stage order is by cost per candidate, cheapest first: the length bucket is
// a free O(1) slot-range lookup, the frequency bound reads a precomputed
// row (one 8-byte word on the packed backend, ten int32 counts on the byte
// backend) without a data-dependent branch, the q-gram count streams the
// candidate once, and only the survivors pay for the edit-distance kernel.
// See DESIGN §13 for why this ordering (rather than the filters' historical
// order) maximizes pruned work per instruction.
//
// For all-DNA datasets the engine stores a 3-bit packed arena
// (internal/bitpack) instead of raw bytes: each surviving comparison then
// touches ~3/8 the memory of a byte scan. Non-DNA queries against the packed
// arena stay exact via bitpack.PackLossy (the reserved code 0 mismatches
// every stored symbol, just as the unknown byte would).
//
// Every filter is sound — it never rejects a string within distance k — so
// the cascade returns exactly the matches a full scan would; the
// differential fuzz targets and the ablation identity test enforce this.
package cascade

import (
	"context"
	"sync/atomic"

	"simsearch/internal/bitpack"
	"simsearch/internal/scan"
)

// Match is a scan match: cascade results use dataset IDs and exact
// distances, in ID order, like every other engine.
type Match = scan.Match

// CompCounter counts comparisons, compatible with scan.CompCounter.
type CompCounter = scan.CompCounter

// ctxStride is how many candidate slots may be visited between context
// polls, mirroring internal/scan's cancellation stride.
const ctxStride = 1024

// Engine is the cascade searcher over a frozen dataset. It is safe for
// concurrent Search/SearchContext calls: all per-query state lives in a
// query plan, and the stage counters are atomic.
type Engine struct {
	n      int
	packed *packedArena // 3-bit DNA layout, nil when the data is not all-DNA
	bytes  *byteArena   // byte layout, nil when packed is active
	name   string

	noFreq  bool
	noQGram bool
	comps   CompCounter

	// Per-stage survivor counters, cumulative across queries. A disabled
	// stage passes everything through, so its survivor count equals its
	// input count and its prune rate reads as zero.
	queries        atomic.Uint64
	candidates     atomic.Uint64 // length-bucket survivors (slots visited)
	freqSurvivors  atomic.Uint64
	qgramSurvivors atomic.Uint64 // == verify-kernel invocations
	matches        atomic.Uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithoutFrequency disables the frequency-vector stage (ablation mode).
func WithoutFrequency() Option { return func(e *Engine) { e.noFreq = true } }

// WithoutQGram disables the q-gram count stage (ablation mode).
func WithoutQGram() Option { return func(e *Engine) { e.noQGram = true } }

// WithComparisonCounter adds a counter receiving the number of verify-kernel
// invocations (the comparisons the cascade could not prune).
func WithComparisonCounter(c CompCounter) Option { return func(e *Engine) { e.comps = c } }

// New builds a cascade engine over data. When every string is valid DNA
// (A, C, G, N, T) the candidate side is stored 3-bit packed; otherwise a
// byte arena with vowel frequency vectors is used. Both layouts are
// length-bucketed with IDs ascending inside each bucket.
func New(data []string, opts ...Option) *Engine {
	e := &Engine{n: len(data)}
	for _, o := range opts {
		o(e)
	}
	allDNA := true
	for _, s := range data {
		if !bitpack.Valid(s) {
			allDNA = false
			break
		}
	}
	if allDNA {
		e.packed = buildPackedArena(data)
		e.name = "cascade/packed"
	} else {
		e.bytes = buildByteArena(data)
		e.name = "cascade/bytes"
	}
	// Ablation variants answer differently-filtered workloads identically but
	// must never share a cache key with the full cascade.
	if e.noFreq {
		e.name += "-nofreq"
	}
	if e.noQGram {
		e.name += "-noqgram"
	}
	return e
}

// Len returns the dataset size.
func (e *Engine) Len() int { return e.n }

// Name identifies the engine and its active backend, e.g. "cascade/packed".
func (e *Engine) Name() string { return e.name }

// Packed reports whether the 3-bit DNA arena is active.
func (e *Engine) Packed() bool { return e.packed != nil }

// Search returns every dataset string within edit distance k of q, in ID
// order.
func (e *Engine) Search(q string, k int) []Match {
	ms, _ := e.SearchContext(context.Background(), q, k)
	return ms
}

// SearchContext is Search honoring cancellation: the slot sweep polls ctx
// every ctxStride candidates and returns ctx.Err() with partial results
// dropped.
func (e *Engine) SearchContext(ctx context.Context, q string, k int) ([]Match, error) {
	if k < 0 {
		return nil, nil
	}
	e.queries.Add(1)
	if e.packed != nil {
		return e.searchPacked(ctx, q, k)
	}
	return e.searchBytes(ctx, q, k)
}

// freqBound returns the frequency-vector lower bound on the edit distance:
// the larger one-sided L1 surplus between the query's vector and a
// precomputed candidate row (filter.Frequency.Bound over int32 rows). With
// over and under the two surpluses, max(over, under) = (L1 + |over-under|)/2
// and over-under = Σd, so it is computed branch-free from Σ|d| and Σd.
func freqBound(vq, vx []int32) int32 {
	vx = vx[:len(vq)]
	var l1, sum int32
	for i, a := range vq {
		d := a - vx[i]
		m := d >> 31
		l1 += (d ^ m) - m
		sum += d
	}
	m := sum >> 31
	return (l1 + (sum ^ m) - m) / 2
}

// Stats is a point-in-time snapshot of the engine's layout and cumulative
// per-stage survivor counters.
type Stats struct {
	Strings    int
	Packed     bool // 3-bit DNA arena active
	ArenaBytes int  // packed payload footprint
	Buckets    int  // non-empty length buckets

	Queries        uint64
	Candidates     uint64 // survivors of the length bucket (slots visited)
	FreqSurvivors  uint64 // survivors of the frequency-vector stage
	QGramSurvivors uint64 // survivors of the q-gram stage = verify calls
	Matches        uint64
}

// Stats returns the current snapshot.
func (e *Engine) Stats() Stats {
	st := Stats{
		Strings:        e.n,
		Packed:         e.packed != nil,
		Queries:        e.queries.Load(),
		Candidates:     e.candidates.Load(),
		FreqSurvivors:  e.freqSurvivors.Load(),
		QGramSurvivors: e.qgramSurvivors.Load(),
		Matches:        e.matches.Load(),
	}
	if e.packed != nil {
		st.ArenaBytes = len(e.packed.words) * 8
		st.Buckets = e.packed.buckets()
	} else {
		st.ArenaBytes = e.bytes.ar.Bytes()
		st.Buckets = e.bytes.ar.Buckets()
	}
	return st
}
