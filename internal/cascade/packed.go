// The packed backend: a contiguous 3-bit DNA arena (the paper's §6
// "Dictionary Compression") laid out exactly like the scan arena — one word
// slab, slots bucketed by (length, ID) — plus one 8-byte frequency row per
// slot, so cascade stage 2 reads one word instead of the sequence and
// bounds it with a handful of branch-free SWAR (SIMD-within-a-register)
// operations.
package cascade

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"simsearch/internal/bitpack"
	"simsearch/internal/filter"
	"simsearch/internal/scan"
)

// dnaSyms is the tracked DNA alphabet size (codes 1..5: A, C, G, N, T).
const dnaSyms = 5

// packedQ is the gram size of the packed q-gram stage. Three 3-bit codes
// index a 512-entry profile, small enough to live in a per-query plan.
const packedQ = 3

// packedGramSpace is the number of distinct packed 3-grams (8^3).
const packedGramSpace = 1 << (3 * packedQ)

// Frequency rows pack code c's count into byte lane c-1 (A, C, G, N, T in
// lanes 0..4; lanes 5..7 stay zero), saturated at laneMax so every lane's
// high bit is free for the borrow-free subtraction in swarBound.
const (
	laneMax   = 0x7f
	laneHigh  = 0x8080808080808080
	laneLow7  = 0x7f7f7f7f7f7f7f7f
	laneEven  = 0x00ff00ff00ff00ff
	laneSum16 = 0x0001000100010001
)

// swarRow packs a symbol-count vector into one SWAR row, saturating each
// count at laneMax.
func swarRow(counts *[dnaSyms]int32) uint64 {
	var row uint64
	for i, c := range counts {
		row |= uint64(min(c, laneMax)) << (8 * i)
	}
	return row
}

// lsb3 has the low bit of each of a packed word's 21 3-bit symbol fields.
const lsb3 = 0x1249249249249249

// packedRow returns the frequency row of a packed sequence. Per word it
// splits the symbol fields into three bit planes and, per code, keeps the
// fields whose planes all match the code's bits, counted by one popcount;
// zero padding fields match no code.
func packedRow(words []uint64) uint64 {
	var counts [dnaSyms]int32
	for _, w := range words {
		b0, b1, b2 := w&lsb3, w>>1&lsb3, w>>2&lsb3
		for c := range counts {
			code := uint64(c + 1)
			m := lsb3 &^ (b0 ^ lsb3*(code&1)) &^ (b1 ^ lsb3*(code>>1&1)) &^ (b2 ^ lsb3*(code>>2))
			counts[c] += int32(bits.OnesCount64(m))
		}
	}
	return swarRow(&counts)
}

// swarBound returns twice the frequency-vector lower bound on the edit
// distance between two strings with frequency rows a and b, where dn is the
// difference of their DNA symbol totals. With over and under the one-sided
// L1 surpluses, max(over, under) = (L1 + |over-under|)/2 and over-under = dn,
// so the bound needs only L1 and dn. L1 is taken over the saturated lanes:
// min(c, laneMax) is monotone and 1-Lipschitz, so the result never exceeds
// twice filter.Frequency.Bound (the stage stays sound), and equals it when
// no count passes laneMax.
//
// Per lane, (a|0x80)-b = 128+a-b and (b|0x80)-a = 128+b-a never borrow
// across lanes; the first one's high bit selects which of the two holds
// |a-b| in its low seven bits. The lanes are then summed pairwise into
// 16-bit lanes and folded by one multiply.
func swarBound(a, b uint64, dn int32) int32 {
	ab := (a | laneHigh) - b
	ba := (b | laneHigh) - a
	ge := ((ab & laneHigh) >> 7) * 0xff // 0xff in the lanes where a >= b
	abs := (ab&ge | ba&^ge) & laneLow7
	pairs := abs&laneEven + abs>>8&laneEven
	m := dn >> 31
	return int32(pairs*laneSum16>>48) + (dn ^ m) - m
}

// packedArena is the 3-bit analogue of scan's byte arena. Slot s holds
// lens[s] symbols packed into words[wordOff[s] : wordOff[s]+PackedWords],
// each slot starting at a word boundary with zero padding, so
// bitpack.View(slot) is a valid Seq without copying. freq[s] is slot s's
// frequency row (see swarRow).
type packedArena struct {
	words    []uint64
	wordOff  []int32
	lens     []int32
	ids      []int32
	lenStart []int32 // bucket of length l spans [lenStart[l], lenStart[l+1])
	maxLen   int
	freq     []uint64
}

// buildPackedArena packs all-DNA data with the same counting sort by
// (length, ID) as scan.buildArena, so every bucket emits ID-sorted matches
// by construction.
func buildPackedArena(data []string) *packedArena {
	maxLen := 0
	totalWords := 0
	for _, s := range data {
		if len(s) > maxLen {
			maxLen = len(s)
		}
		totalWords += bitpack.PackedWords(len(s))
	}
	if totalWords > math.MaxInt32 {
		panic(fmt.Sprintf("cascade: packed arena supports at most %d words, got %d", math.MaxInt32, totalWords))
	}
	a := &packedArena{
		words:    make([]uint64, totalWords),
		wordOff:  make([]int32, len(data)),
		lens:     make([]int32, len(data)),
		ids:      make([]int32, len(data)),
		lenStart: make([]int32, maxLen+2),
		maxLen:   maxLen,
		freq:     make([]uint64, len(data)),
	}
	counts := make([]int32, maxLen+1)
	for _, s := range data {
		counts[len(s)]++
	}
	var slot int32
	for l := 0; l <= maxLen; l++ {
		a.lenStart[l] = slot
		slot += counts[l]
	}
	a.lenStart[maxLen+1] = slot
	next := make([]int32, maxLen+1)
	copy(next, a.lenStart[:maxLen+1])
	wordStart := make([]int32, maxLen+1)
	var off int32
	for l := 0; l <= maxLen; l++ {
		wordStart[l] = off
		off += counts[l] * int32(bitpack.PackedWords(l))
	}
	for i, s := range data {
		sl := next[len(s)]
		next[len(s)]++
		a.ids[sl] = int32(i)
		a.lens[sl] = int32(len(s))
		wo := wordStart[len(s)]
		wordStart[len(s)] += int32(bitpack.PackedWords(len(s)))
		a.wordOff[sl] = wo
		slab := a.words[wo : wo+int32(bitpack.PackedWords(len(s)))]
		bitpack.PackInto(slab, s)
		a.freq[sl] = packedRow(slab)
	}
	return a
}

// slotRange returns the slots holding strings with length in [lo, hi],
// clamped to the dataset's length range.
func (a *packedArena) slotRange(lo, hi int) (int32, int32) {
	if lo < 0 {
		lo = 0
	}
	if hi > a.maxLen {
		hi = a.maxLen
	}
	if lo > hi || len(a.ids) == 0 {
		return 0, 0
	}
	return a.lenStart[lo], a.lenStart[hi+1]
}

// view returns slot s as a zero-copy packed sequence.
func (a *packedArena) view(s int32) bitpack.Seq {
	w := a.wordOff[s]
	return bitpack.View(a.words[w:w+int32(bitpack.PackedWords(int(a.lens[s])))], int(a.lens[s]))
}

// buckets returns the number of distinct, non-empty length buckets.
func (a *packedArena) buckets() int {
	n := 0
	for l := 0; l <= a.maxLen; l++ {
		if a.lenStart[l+1] > a.lenStart[l] {
			n++
		}
	}
	return n
}

// packedPlan is the per-query compiled state of the packed cascade: the
// lossily packed query, its frequency row and DNA symbol total, its 3-gram
// profile, and the kernel scratch. Everything per-candidate reuses this
// state; nothing in the sweep allocates.
type packedPlan struct {
	qseq    bitpack.Seq
	fq      uint64                 // frequency row of the query's DNA symbols
	nq      int32                  // number of DNA symbols in the query
	profile [packedGramSpace]int32 // query gram multiplicities
	used    [packedGramSpace]int32 // candidate consumption, restored per candidate
	touched []uint16
	qGrams  int
	scratch bitpack.Scratch
}

// newPackedPlan compiles q once. PackLossy keeps non-DNA queries exact: the
// reserved code 0 never equals a stored symbol code, so distances match the
// byte-level DP (see bitpack.PackLossy).
func newPackedPlan(q string) *packedPlan {
	pl := &packedPlan{qseq: bitpack.PackLossy(q)}
	var counts [dnaSyms]int32
	for i := 0; i < len(q); i++ {
		if c := bitpack.Code(q[i]); c != 0 {
			counts[c-1]++
			pl.nq++
		}
	}
	pl.fq = swarRow(&counts)
	if len(q) >= packedQ {
		pl.qGrams = len(q) - packedQ + 1
		gram := uint32(0)
		for i := 0; i < len(q); i++ {
			gram = (gram<<3 | uint32(pl.qseq.At(i))) & (packedGramSpace - 1)
			if i >= packedQ-1 {
				pl.profile[gram]++
			}
		}
	}
	return pl
}

// gramKeep reports whether the candidate shares at least bound 3-grams with
// the query. It streams the candidate's packed codes once, consuming query
// gram multiplicities, with two-sided early exit: accept as soon as the
// bound is met, reject as soon as the remaining grams cannot meet it.
func (pl *packedPlan) gramKeep(v bitpack.Seq, bound int) bool {
	cand := v.Len() - packedQ + 1
	if bound > pl.qGrams || bound > cand {
		return false
	}
	shared := 0
	remaining := cand
	keep := false
	gram := uint32(0)
	touched := pl.touched[:0]
	for i := 0; i < v.Len(); i++ {
		gram = (gram<<3 | uint32(v.At(i))) & (packedGramSpace - 1)
		if i < packedQ-1 {
			continue
		}
		remaining--
		if pl.used[gram] < pl.profile[gram] {
			shared++
		}
		pl.used[gram]++
		touched = append(touched, uint16(gram))
		if shared >= bound {
			keep = true
			break
		}
		if shared+remaining < bound {
			break
		}
	}
	for _, g := range touched {
		pl.used[g] = 0
	}
	pl.touched = touched[:0]
	return keep
}

// searchPacked runs the cascade over the packed arena. The slot window is
// the length filter; the loop polls ctx every ctxStride candidates like
// scan.scanArenaSlots, and stage counters are flushed on every exit path.
// Every stored symbol is a DNA code, so a slot's symbol total is its length
// and the frequency stage reads just the slot's row and length.
func (e *Engine) searchPacked(ctx context.Context, q string, k int) ([]Match, error) {
	pa := e.packed
	lo, hi := pa.slotRange(len(q)-k, len(q)+k)
	var visited, freqKept, gramKept uint64
	defer func() {
		e.candidates.Add(visited)
		e.freqSurvivors.Add(freqKept)
		e.qgramSurvivors.Add(gramKept)
		if e.comps != nil {
			e.comps.Add(gramKept)
		}
	}()
	if lo == hi {
		return nil, nil
	}
	pl := newPackedPlan(q)
	k2 := 2 * k
	ms := make([]Match, 0, 16)
	for s := lo; s < hi; s++ {
		if visited%ctxStride == ctxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		visited++
		if !e.noFreq && int(swarBound(pl.fq, pa.freq[s], pl.nq-pa.lens[s])) > k2 {
			continue
		}
		freqKept++
		v := pa.view(s)
		if !e.noQGram {
			if b := filter.QGramCountBound(len(q), v.Len(), packedQ, k); b > 0 && !pl.gramKeep(v, b) {
				continue
			}
		}
		gramKept++
		if d, ok := bitpack.BoundedDistanceScratch(pl.qseq, v, k, &pl.scratch); ok {
			ms = append(ms, Match{ID: pa.ids[s], Dist: d})
		}
	}
	e.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}
