package cascade

import (
	"math/rand"
	"testing"

	"simsearch/internal/dataset"
)

// BenchmarkCascadePackedShard times one shard call of the packed cascade at
// the scale of one dna-batch shard: half of 75k DNAReads (37.5k reads) with
// mutated-read queries at k 1..3. One op is one query; the stage funnel is
// reported per query so a change to a filter stage shows whether it moved
// work between stages or only made a stage cheaper.
func BenchmarkCascadePackedShard(b *testing.B) {
	data := dataset.DNAReads(75_000, 7)
	shard := data[:len(data)/2]
	e := New(shard)
	if !e.Packed() {
		b.Fatal("DNA reads must select the packed backend")
	}
	texts := dataset.Queries(data, 512, 3, 8)
	r := rand.New(rand.NewSource(9))
	ks := make([]int, len(texts))
	for i := range ks {
		ks[i] = 1 + r.Intn(3)
	}
	st0 := e.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(texts)
		e.Search(texts[j], ks[j])
	}
	b.StopTimer()
	st := e.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(st.Candidates-st0.Candidates)/n, "cand/q")
	b.ReportMetric(float64(st.FreqSurvivors-st0.FreqSurvivors)/n, "freq/q")
	b.ReportMetric(float64(st.QGramSurvivors-st0.QGramSurvivors)/n, "gram/q")
}
