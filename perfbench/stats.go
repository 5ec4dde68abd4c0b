package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie above a reported percentile: a p99
// needs at least 1,000 samples, so that it rests on ten observations and
// not on the single worst one.
const beyond = 10

// rank is the nearest-rank index (0-based) of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// Supported reports whether n samples hold at least ten beyond quantile q.
func Supported(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= beyond
}

// Quantile returns the nearest-rank quantile q of xs (sorted in place) and
// whether the sample supports it under the ten-beyond rule. When it does not,
// the value is the highest percentile the sample does support (the sample
// ten from the top), or the maximum when there are ten samples or fewer.
func Quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	if Supported(len(xs), q) {
		return xs[rank(len(xs), q)], true
	}
	i := len(xs) - 1 - beyond
	if i < 0 {
		i = len(xs) - 1
	}
	return xs[i], false
}

// Median is the nearest-rank median of xs, however few they are (it
// summarises repeated measurements, where the ten-beyond rule does not
// apply). xs is left unchanged.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), 0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Op is one operation the load generator issued.
type Op struct {
	Sent, Done time.Time
	Queries    int  // queries answered by the operation (a batch counts each)
	Err        bool // transport error or non-2xx status
}

// Latency is the operation's latency, from send to the end of its answer.
func (o Op) Latency() time.Duration { return o.Done.Sub(o.Sent) }

// Latencies returns the operations' latencies in milliseconds.
func Latencies(ops []Op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.Latency())
	}
	return out
}

// Failures counts operations that failed: an operation fails when its
// request errored or was refused, or when the oracle rejected its response
// (mismatched holds the indices of those). Each operation counts once.
func Failures(ops []Op, mismatched map[int]bool) int {
	n := 0
	for i, o := range ops {
		if o.Err || mismatched[i] {
			n++
		}
	}
	return n
}

// wallTime is the span of the operations: first send to last completion.
func wallTime(ops []Op) time.Duration {
	if len(ops) == 0 {
		return 0
	}
	first, last := ops[0].Sent, ops[0].Done
	for _, o := range ops {
		if o.Sent.Before(first) {
			first = o.Sent
		}
		if o.Done.After(last) {
			last = o.Done
		}
	}
	return last.Sub(first)
}
