// The byte backend: for datasets that are not pure DNA the cascade runs over
// the scan package's length-bucketed byte arena, with vowel frequency
// vectors (the paper's §6 suggestion for the city names) precomputed per
// slot and a 2-gram count stage over raw bytes.
package cascade

import (
	"context"
	"sync"

	"simsearch/internal/edit"
	"simsearch/internal/filter"
	"simsearch/internal/scan"
)

// byteQ is the gram size of the byte q-gram stage. Two bytes index a
// 65536-entry table; the tables are pooled across queries (see gramTables)
// because zeroing half a megabyte per query would dominate short queries.
const byteQ = 2

// byteGramSpace is the number of distinct byte 2-grams.
const byteGramSpace = 1 << 16

// byteArena is the byte-backend candidate layout: the shared scan arena plus
// a slot-major slab of precomputed frequency vectors.
type byteArena struct {
	ar   *scan.Arena
	f    *filter.Frequency
	nsym int
	freq []int32
}

// buildByteArena packs data into a scan arena and precomputes every slot's
// vowel frequency vector into one flat slab.
func buildByteArena(data []string) *byteArena {
	ba := &byteArena{ar: scan.NewArena(data), f: filter.VowelFrequency()}
	ba.nsym = ba.f.NumSymbols()
	ba.freq = make([]int32, ba.nsym*ba.ar.Len())
	for s := int32(0); s < int32(ba.ar.Len()); s++ {
		row := ba.freq[int(s)*ba.nsym : (int(s)+1)*ba.nsym]
		xb := ba.ar.SlotBytes(s)
		for _, b := range xb {
			if idx := ba.f.Index(b); idx >= 0 {
				row[idx]++
			}
		}
	}
	return ba
}

// freqRow returns slot s's precomputed frequency vector.
func (ba *byteArena) freqRow(s int32) []int32 {
	return ba.freq[int(s)*ba.nsym : (int(s)+1)*ba.nsym]
}

// byteGramTable holds the query's 2-gram profile and the per-candidate
// consumption counters. Both arrays are kept all-zero between uses via
// touched-list restore, so a pooled table never needs re-zeroing.
type byteGramTable struct {
	profile  [byteGramSpace]int32
	used     [byteGramSpace]int32
	touchedQ []uint16 // grams set during profile build, restored on release
	touched  []uint16 // grams consumed per candidate, restored per candidate
}

// gramTables recycles the half-megabyte tables across queries and
// goroutines.
var gramTables = sync.Pool{New: func() any { return new(byteGramTable) }}

// bytePlan is the per-query compiled state of the byte cascade.
type bytePlan struct {
	p       *edit.MyersPattern
	vq      []int32
	tab     *byteGramTable
	qGrams  int
	scratch edit.MyersScratch
}

// newBytePlan compiles q once: Myers pattern, frequency vector, 2-gram
// profile. The caller must release() the plan to return the gram table to
// the pool with its invariants restored.
func newBytePlan(ba *byteArena, q string) *bytePlan {
	pl := &bytePlan{p: edit.CompileMyers(q), vq: make([]int32, ba.nsym)}
	for i := 0; i < len(q); i++ {
		if idx := ba.f.Index(q[i]); idx >= 0 {
			pl.vq[idx]++
		}
	}
	pl.tab = gramTables.Get().(*byteGramTable)
	if len(q) >= byteQ {
		pl.qGrams = len(q) - byteQ + 1
		for i := byteQ - 1; i < len(q); i++ {
			g := uint16(q[i-1])<<8 | uint16(q[i])
			pl.tab.profile[g]++
			pl.tab.touchedQ = append(pl.tab.touchedQ, g)
		}
	}
	return pl
}

// release restores the gram table to all-zero and returns it to the pool.
func (pl *bytePlan) release() {
	for _, g := range pl.tab.touchedQ {
		pl.tab.profile[g] = 0
	}
	pl.tab.touchedQ = pl.tab.touchedQ[:0]
	gramTables.Put(pl.tab)
	pl.tab = nil
}

// gramKeep reports whether the candidate shares at least bound 2-grams with
// the query, with the same consume/restore and two-sided early exit as the
// packed stage.
func (pl *bytePlan) gramKeep(xb []byte, bound int) bool {
	cand := len(xb) - byteQ + 1
	if bound > pl.qGrams || bound > cand {
		return false
	}
	shared := 0
	remaining := cand
	keep := false
	tab := pl.tab
	touched := tab.touched[:0]
	for i := byteQ - 1; i < len(xb); i++ {
		g := uint16(xb[i-1])<<8 | uint16(xb[i])
		remaining--
		if tab.used[g] < tab.profile[g] {
			shared++
		}
		tab.used[g]++
		touched = append(touched, g)
		if shared >= bound {
			keep = true
			break
		}
		if shared+remaining < bound {
			break
		}
	}
	for _, g := range touched {
		tab.used[g] = 0
	}
	tab.touched = touched[:0]
	return keep
}

// searchBytes runs the cascade over the byte arena; see searchPacked for the
// sweep structure.
func (e *Engine) searchBytes(ctx context.Context, q string, k int) ([]Match, error) {
	ba := e.bytes
	lo, hi := ba.ar.SlotRange(len(q)-k, len(q)+k)
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
	pl := newBytePlan(ba, q)
	defer pl.release()
	ms := make([]Match, 0, 16)
	for s := lo; s < hi; s++ {
		if visited%ctxStride == ctxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		visited++
		if !e.noFreq && int(freqBound(pl.vq, ba.freqRow(s))) > k {
			continue
		}
		freqKept++
		xb := ba.ar.SlotBytes(s)
		if !e.noQGram {
			if b := filter.QGramCountBound(len(q), len(xb), byteQ, k); b > 0 && !pl.gramKeep(xb, b) {
				continue
			}
		}
		gramKept++
		if d, ok := pl.p.BoundedDistanceBytes(xb, k, &pl.scratch); ok {
			ms = append(ms, Match{ID: ba.ar.SlotID(s), Dist: d})
		}
	}
	e.matches.Add(uint64(len(ms)))
	return scan.MergeRuns(ms), nil
}
