package main

import (
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if !Supported(1000, 0.99) {
		t.Error("1,000 samples must support a p99 (ten lie beyond it)")
	}
	if Supported(999, 0.99) {
		t.Error("999 samples leave fewer than ten beyond the p99")
	}
	if !Supported(20, 0.5) || Supported(19, 0.5) {
		t.Error("a median needs 20 samples under the ten-beyond rule")
	}
	v, ok := Quantile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (supported %v), want nearest rank 990", v, ok)
	}
	v, ok = Quantile(seq(500), 0.99)
	if ok || v != 490 {
		t.Errorf("p99 of 1..500 = %v (supported %v), want the highest supported percentile, 490, flagged", v, ok)
	}
	v, ok = Quantile(seq(5), 0.99)
	if ok || v != 5 {
		t.Errorf("p99 of 5 samples = %v (supported %v), want the maximum, flagged", v, ok)
	}
	if m := Median([]float64{5, 1, 3, 2, 4}); m != 3 {
		t.Errorf("median = %v, want 3 (input unsorted, too few for a supported p50)", m)
	}
	if m := Median([]float64{9, 1, 4}); m != 4 {
		t.Errorf("median of three = %v, want 4", m)
	}
	if _, ok := Quantile(nil, 0.5); ok {
		t.Error("an empty sample supports nothing")
	}
}

func TestClosedLoopLatencyAndWallTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := Op{Sent: t0, Done: t0.Add(3 * time.Millisecond)}
	b := Op{Sent: t0.Add(-time.Millisecond), Done: t0.Add(time.Millisecond)}
	if a.Latency() != 3*time.Millisecond {
		t.Errorf("latency %v, want 3ms from send", a.Latency())
	}
	if w := wallTime([]Op{a, b}); w != 4*time.Millisecond {
		t.Errorf("wall time %v, want first send to last completion", w)
	}
}

// The closed loop stops taking new operations as soon as more refuses one,
// runs each index once, and leaves no hole behind.
func TestClosedLoopStopsWhenRefused(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	ops := closedLoop([]*client{{}, {}}, upTo(50), func(c *client, i int) (int, error) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return 2, nil
	})
	if len(ops) != 50 || len(seen) != 50 {
		t.Fatalf("ran %d ops over %d indices, want 50", len(ops), len(seen))
	}
	for i, n := range seen {
		if n != 1 || i < 0 || i >= 50 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
	for _, o := range ops {
		if o.Sent.IsZero() || o.Queries != 2 || o.Done.Before(o.Sent) {
			t.Errorf("bad op %+v", o)
		}
	}
}

func TestFailuresCountEachOperationOnce(t *testing.T) {
	ops := make([]Op, 6)
	ops[1].Err = true // refused
	ops[3].Err = true // errored and also mismatched
	mism := map[int]bool{3: true, 4: true}
	if n := Failures(ops, mism); n != 3 {
		t.Fatalf("Failures = %d, want 3 (ops 1, 3, 4)", n)
	}
	p := &phase{attempted: 6, failed: Failures(ops, mism), mismatches: len(mism),
		setups: []float64{1}, warmups: []float64{1}, trials: []trial{{p50: 1, p99: 1, qps: 1, heapMB: 1}}}
	r := endToEndResult(p)
	if got := r.extra["failed_frac"].Value; got != 0.5 {
		t.Errorf("failed_frac = %v, want 3/6", got)
	}
	if r.Correct {
		t.Error("a run with oracle mismatches must not be reported correct")
	}
}

func TestLifetimeWindows(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	seed := &lifetime{}
	if !seed.surely(at(0), at(5)) || !seed.possibly(at(0), at(5)) {
		t.Error("a never-deleted seed string is live throughout")
	}
	ins := &lifetime{insSent: at(10), insAck: at(12)}
	if ins.surely(at(11), at(20)) || !ins.possibly(at(11), at(20)) {
		t.Error("a read overlapping the insert may, but need not, see it")
	}
	if !ins.surely(at(12), at(20)) || ins.possibly(at(0), at(9)) {
		t.Error("a read after the ack must see it; one before the send must not")
	}
	del := &lifetime{deleted: true, delSent: at(30), delAck: at(32)}
	if !del.surely(at(0), at(30)) || del.surely(at(0), at(31)) {
		t.Error("a read ending after the delete was sent need not see the string")
	}
	if !del.possibly(at(32), at(40)) || del.possibly(at(33), at(40)) {
		t.Error("a read starting after the delete ack must not see the string")
	}
}
