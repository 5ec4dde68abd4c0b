package cascade

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"simsearch/internal/bitpack"
	"simsearch/internal/dataset"
	"simsearch/internal/edit"
)

// oracle returns the brute-force result set in ID order.
func oracle(data []string, q string, k int) []Match {
	var out []Match
	for i, s := range data {
		if d := edit.Distance(q, s); d <= k {
			out = append(out, Match{ID: int32(i), Dist: d})
		}
	}
	return out
}

func equal(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomString(r *rand.Rand, alpha string, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[r.Intn(len(alpha))])
	}
	return sb.String()
}

func TestBackendSelection(t *testing.T) {
	if e := New([]string{"ACGT", "TTNN"}); !e.Packed() || e.Name() != "cascade/packed" {
		t.Errorf("all-DNA data must select the packed backend, got %s", e.Name())
	}
	if e := New([]string{"ACGT", "Berlin"}); e.Packed() || e.Name() != "cascade/bytes" {
		t.Errorf("mixed data must select the byte backend, got %s", e.Name())
	}
	if got := New(nil, WithoutFrequency(), WithoutQGram()).Name(); got != "cascade/packed-nofreq-noqgram" {
		t.Errorf("ablation name = %q", got)
	}
}

func TestSearchMatchesOracle(t *testing.T) {
	alphabets := []string{"ACGNT", "abcdefgh Z-"}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := alphabets[r.Intn(len(alphabets))]
		data := make([]string, r.Intn(40))
		for i := range data {
			data[i] = randomString(r, alpha, 24)
		}
		e := New(data)
		for i := 0; i < 6; i++ {
			// Queries from either alphabet: a byte query against the packed
			// backend exercises the lossy-pack exactness path.
			q := randomString(r, alphabets[r.Intn(len(alphabets))], 24)
			k := r.Intn(8)
			got := e.Search(q, k)
			want := oracle(data, q, k)
			if !equal(got, want) {
				t.Errorf("seed %d %s: Search(%q,%d) = %v, want %v", seed, e.Name(), q, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Soundness: no filter stage may reject a true match. Running every ablation
// combination over the same workload and demanding identical results means a
// stage can only ever remove non-matches: verify-only (both filters off) is
// exhaustive ground truth, and each enabled stage must preserve it.
func TestStagesNeverRejectTrueMatch(t *testing.T) {
	combos := [][]Option{
		nil,
		{WithoutFrequency()},
		{WithoutQGram()},
		{WithoutFrequency(), WithoutQGram()},
	}
	alphabets := []string{"ACGNT", "city name alphabet"}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := alphabets[r.Intn(len(alphabets))]
		data := make([]string, 1+r.Intn(30))
		for i := range data {
			data[i] = randomString(r, alpha, 20)
		}
		engines := make([]*Engine, len(combos))
		for i, c := range combos {
			engines[i] = New(data, c...)
		}
		for i := 0; i < 4; i++ {
			q := randomString(r, alpha, 20)
			k := r.Intn(6)
			want := engines[len(engines)-1].Search(q, k) // verify-only: no filter stages
			for _, e := range engines[:len(engines)-1] {
				if got := e.Search(q, k); !equal(got, want) {
					t.Errorf("seed %d: %s diverges from verify-only on (%q,%d): got %v, want %v",
						seed, e.Name(), q, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestShortStringsAndZeroK(t *testing.T) {
	// Strings shorter than both gram sizes, empty strings, k=0 exact lookup.
	data := []string{"", "A", "AC", "ACG", "ACGT", "x", "xy"}
	e := New(data)
	for _, q := range []string{"", "A", "AC", "B", "xy", "ACGT"} {
		for k := 0; k < 4; k++ {
			if got, want := e.Search(q, k), oracle(data, q, k); !equal(got, want) {
				t.Errorf("Search(%q,%d) = %v, want %v", q, k, got, want)
			}
		}
	}
	// A k beyond int32 must not wrap around in the frequency stage.
	for _, d := range [][]string{data, data[:5]} {
		if got, want := New(d).Search("ACG", 1<<32), oracle(d, "ACG", len(d)); !equal(got, want) {
			t.Errorf("Search(ACG, 1<<32) over %q = %v, want every string: %v", d, got, want)
		}
	}
	if ms := e.Search("ACG", -1); ms != nil {
		t.Errorf("negative k must return nil, got %v", ms)
	}
}

func TestSearchContextCancellation(t *testing.T) {
	data := make([]string, 3000)
	for i := range data {
		data[i] = strings.Repeat("ACGT", 6)
	}
	q := strings.Repeat("ACGT", 6)
	for _, e := range []*Engine{New(data), New(append(data, "not dna"))} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.SearchContext(ctx, q, 2); err == nil {
			t.Errorf("%s: pre-cancelled context must abort the sweep", e.Name())
		}
		if ms, err := e.SearchContext(context.Background(), q, 0); err != nil || len(ms) < 3000 {
			t.Errorf("%s: uncancelled exact search: %d matches, err %v", e.Name(), len(ms), err)
		}
	}
}

func TestStatsSurvivorFunnel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([]string, 500)
	for i := range data {
		data[i] = randomString(r, "ACGNT", 30)
	}
	e := New(data)
	for i := 0; i < 20; i++ {
		e.Search(randomString(r, "ACGNT", 30), 1+r.Intn(3))
	}
	st := e.Stats()
	if st.Queries != 20 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if !st.Packed || st.ArenaBytes <= 0 || st.Buckets <= 0 || st.Strings != len(data) {
		t.Errorf("layout stats wrong: %+v", st)
	}
	// The funnel may only narrow: every stage's survivors are a subset of the
	// previous stage's.
	if st.Candidates < st.FreqSurvivors || st.FreqSurvivors < st.QGramSurvivors ||
		st.QGramSurvivors < st.Matches {
		t.Errorf("survivor funnel widened: %+v", st)
	}
	if st.Candidates == 0 {
		t.Error("length stage admitted no candidates over 20 random queries")
	}
}

func TestComparisonCounterCountsVerifyCalls(t *testing.T) {
	var total uint64
	var mu sync.Mutex
	add := addFunc(func(n uint64) { mu.Lock(); total += n; mu.Unlock() })
	r := rand.New(rand.NewSource(3))
	data := make([]string, 200)
	for i := range data {
		data[i] = randomString(r, "ACGNT", 25)
	}
	e := New(data, WithComparisonCounter(add))
	for i := 0; i < 10; i++ {
		e.Search(randomString(r, "ACGNT", 25), 2)
	}
	mu.Lock()
	got := total
	mu.Unlock()
	if got != e.Stats().QGramSurvivors {
		t.Errorf("comparison counter = %d, want verify calls %d", got, e.Stats().QGramSurvivors)
	}
}

type addFunc func(uint64)

func (f addFunc) Add(n uint64) { f(n) }

func TestConcurrentSearches(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dna := make([]string, 800)
	for i := range dna {
		dna[i] = randomString(r, "ACGNT", 24)
	}
	city := make([]string, 800)
	for i := range city {
		city[i] = randomString(r, "abcdefgh ", 24)
	}
	for _, e := range []*Engine{New(dna), New(city)} {
		e := e
		want := e.Search("ACGNTACG", 3)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(seed))
				for i := 0; i < 40; i++ {
					if got := e.Search("ACGNTACG", 3); !equal(got, want) {
						t.Errorf("%s: concurrent result diverged", e.Name())
						return
					}
					e.Search(randomString(rr, "abcACGNT", 20), rr.Intn(5))
					e.Stats()
				}
			}(int64(g))
		}
		wg.Wait()
	}
}

// freqBoundOverUnder is the textbook form of the frequency bound: the larger
// of the two one-sided L1 surpluses.
func freqBoundOverUnder(vq, vx []int32) int32 {
	var over, under int32
	for i, a := range vq {
		d := a - vx[i]
		if d > 0 {
			over += d
		} else {
			under -= d
		}
	}
	return max(over, under)
}

func randomCounts(r *rand.Rand, n int, maxCount int32) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = r.Int31n(maxCount + 1)
	}
	return v
}

func TestFreqBoundMatchesOverUnder(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(12)
		vq, vx := randomCounts(r, n, 300), randomCounts(r, n, 300)
		if got, want := freqBound(vq, vx), freqBoundOverUnder(vq, vx); got != want {
			t.Errorf("freqBound(%v, %v) = %d, want %d", vq, vx, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// swarOf returns the frequency row and symbol total of a count vector.
func swarOf(v []int32) (uint64, int32) {
	var counts [dnaSyms]int32
	var total int32
	for i, c := range v {
		counts[i] = c
		total += c
	}
	return swarRow(&counts), total
}

func TestPackedRowCountsSymbols(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomString(r, "ACGNT", 60)
		if r.Intn(2) == 0 {
			s += strings.Repeat(string("ACGNT"[r.Intn(5)]), r.Intn(300))
		}
		words := make([]uint64, bitpack.PackedWords(len(s)))
		bitpack.PackInto(words, s)
		var counts [dnaSyms]int32
		for i := 0; i < len(s); i++ {
			counts[bitpack.Code(s[i])-1]++
		}
		if got, want := packedRow(words), swarRow(&counts); got != want {
			t.Errorf("packedRow(%q) = %#x, want %#x", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The packed stage prunes iff swarBound > 2k, so soundness needs swarBound
// ≤ 2·freqBound for every pair of count vectors; with no count above the
// lane maximum the two bounds must agree, so the funnel does not change.
func TestSWARBoundSaturation(t *testing.T) {
	check := func(vq, vx []int32) bool {
		fq, nq := swarOf(vq)
		fx, nx := swarOf(vx)
		got, exact := swarBound(fq, fx, nq-nx), 2*freqBound(vq, vx)
		if got > exact {
			t.Errorf("swarBound(%v, %v) = %d exceeds 2·freqBound = %d", vq, vx, got, exact)
			return false
		}
		if slices.Max(vq) <= laneMax && slices.Max(vx) <= laneMax && got != exact {
			t.Errorf("swarBound(%v, %v) = %d, want 2·freqBound = %d", vq, vx, got, exact)
			return false
		}
		return true
	}
	edges := [][]int32{
		{0, 0, 0, 0, 0},
		{127, 127, 127, 127, 127},
		{128, 0, 0, 0, 0},
		{0, 0, 0, 0, 300},
		{127, 0, 127, 0, 127},
		{1000, 1, 126, 127, 128},
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxCount := []int32{3, 127, 200, 1000}[r.Intn(4)]
		return check(randomCounts(r, dnaSyms, maxCount), randomCounts(r, dnaSyms, maxCount))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Long homopolymer runs put more than laneMax copies of one symbol in a row
// on both sides of the frequency stage; the packed cascade must still return
// exactly the DP oracle's answer.
func TestPackedSaturatedCountsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const alpha = "ACGNT"
	var data []string
	for _, c := range alpha {
		run := strings.Repeat(string(c), 300)
		data = append(data, run)
		for k := 1; k <= 4; k++ {
			data = append(data, dataset.Mutate(r, run, k, alpha))
		}
	}
	data = append(data,
		strings.Repeat("A", 200)+strings.Repeat("C", 100),
		strings.Repeat("A", 150)+strings.Repeat("G", 150),
		strings.Repeat("T", 130)+randomString(r, alpha, 170))
	e := New(data)
	if !e.Packed() {
		t.Fatal("DNA data must select the packed backend")
	}
	for i := 0; i < 60; i++ {
		q := dataset.Mutate(r, data[r.Intn(len(data))], r.Intn(4), alpha)
		k := r.Intn(5)
		if got, want := e.Search(q, k), oracle(data, q, k); !equal(got, want) {
			t.Errorf("Search(%q, %d) = %v, want %v", q, k, got, want)
		}
	}
	if st := e.Stats(); st.FreqSurvivors == st.Candidates {
		t.Errorf("frequency stage pruned nothing: %+v", st)
	}
}
