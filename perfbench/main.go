// Command perfbench is the repository's benchmark of record. It serves the
// program as shipped on loopback TCP (real httpapi and distrib handlers over
// the public constructors), drives it from one process with at most two
// client connections, checks sampled answers against the DP oracle, and
// prints every end-to-end metric by name and unit, ending with one JSON line.
// A traced run (--trace 1) times calls into each layer from outside and
// prints the per-layer metrics instead. See README.md for the workloads and
// what each metric should move.
//
//	bash perfbench/run.sh --workload city-point --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var stderr io.Writer = os.Stderr

// clients is the load generator's connection count: one per CPU of the
// two-vCPU host the benchmark was calibrated on.
const clients = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trials   int // timed phases per pass, each on a fresh stack; end-to-end figures are their medians
	setups   int // extra constructions timed for setup_s alone
	out      string
}

// phase is what one measured pass over a workload produced. A pass runs one
// or more trials, each on a freshly built stack.
type phase struct {
	setups, warmups []float64 // seconds, one per construction
	trials          []trial
	reads           []Op // timed reads of every trial
	minTrialReads   int  // reads of the shortest trial
	timed           time.Duration
	queries         int // queries answered in the timed phases
	allocBytes      uint64
	gcCycles        uint32
	gcPauseNs       uint64
	attempted       int
	failed          int
	mismatches      int
	extra           map[string]metric // printed and saved, not in the JSON line
	layers          map[string]float64
	spans           []Span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// trial is one timed phase on one stack.
type trial struct {
	p50, p99, qps, heapMB float64
}

// addTrial records a timed phase of length d and measures the live heap.
func (p *phase) addTrial(reads []Op, d time.Duration) {
	q := 0
	for _, o := range reads {
		if !o.Err {
			q += o.Queries
		}
	}
	lat := Latencies(reads)
	p50, _ := Quantile(lat, 0.50)
	p99, _ := Quantile(lat, 0.99)
	p.trials = append(p.trials, trial{p50: p50, p99: p99, qps: float64(q) / d.Seconds(), heapMB: heapNow()})
	if len(p.trials) == 1 || len(reads) < p.minTrialReads {
		p.minTrialReads = len(reads)
	}
	p.reads = append(p.reads, reads...)
	p.queries += q
	p.timed += d
}

// memDelta adds the runtime counters accumulated between a and b.
func (p *phase) memDelta(a, b *runtime.MemStats) {
	p.allocBytes += b.TotalAlloc - a.TotalAlloc
	p.gcCycles += b.NumGC - a.NumGC
	p.gcPauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// heapNow forces a collection and returns the live heap in MB.
func heapNow() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// workloads maps each workload name to its runner; t is nil when untraced.
var workloads = map[string]func(cfg config, t *Tracer) (*phase, error){
	"city-point": runCity,
	"dna-batch":  runDNA,
	"live-mixed": runLive,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "city-point, dna-batch or live-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: corpus, requests and oracle sample")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for result files, span dumps and temp stores")
	flag.Parse()
	runW, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "results"), 0o755); err != nil {
		return err
	}
	st := stamp(cfg, trace == 1)

	var res result
	if trace == 0 {
		cfg.trials, cfg.setups = 5, 5
		p, err := runW(cfg, nil)
		if err != nil {
			return err
		}
		res = endToEndResult(p)
	} else {
		// The untraced pass gives the overhead baseline and the Go runtime
		// counters, which the span buffer would otherwise inflate.
		cfg.trials, cfg.setups = 1, 0
		base, err := runW(cfg, nil)
		if err != nil {
			return err
		}
		t := NewTracer()
		traced, err := runW(cfg, t)
		if err != nil {
			return err
		}
		res = layerResult(base, traced)
		dump := filepath.Join(cfg.out, "results", st.fileStem()+"-spans.tsv")
		if err := Dump(dump, traced.spans); err != nil {
			return err
		}
		fmt.Printf("# span dump: %s (%d spans)\n", dump, len(traced.spans))
	}
	return report(cfg, st, res)
}

// result is the printed outcome of an invocation.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     map[string]metric
}

func endToEndResult(p *phase) result {
	med := func(f func(trial) float64) float64 {
		xs := make([]float64, len(p.trials))
		for i, tr := range p.trials {
			xs[i] = f(tr)
		}
		return Median(xs)
	}
	m := map[string]metric{
		"setup_s":       {Median(p.setups), "s"},
		"warmup_s":      {Median(p.warmups), "s"},
		"read_p50_ms":   {med(func(t trial) float64 { return t.p50 }), "ms"},
		"read_p99_ms":   {med(func(t trial) float64 { return t.p99 }), "ms"},
		"queries_per_s": {med(func(t trial) float64 { return t.qps }), "1/s"},
		"heap_mb":       {med(func(t trial) float64 { return t.heapMB }), "MB"},
	}
	extra := map[string]metric{
		"failed_frac": {float64(p.failed) / float64(max(p.attempted, 1)), "ratio"},
		"reads":       {float64(len(p.reads)), "count"},
		"trials":      {float64(len(p.trials)), "count"},
	}
	for k, v := range p.extra {
		extra[k] = v
	}
	return result{
		Correct: p.mismatches == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: m, extra: extra,
	}
}

// checkSupport fails a pass with a trial too short for a p99 with ten
// samples beyond it.
func checkSupport(p *phase) error {
	if n := p.minTrialReads; !Supported(n, 0.99) {
		return fmt.Errorf("a timed phase carried %d reads; its p99 needs at least %d", n, 100*beyond)
	}
	return nil
}

func report(cfg config, st stampInfo, res result) error {
	for _, line := range st.lines() {
		fmt.Println("#", line)
	}
	names := make([]string, 0, len(res.Metrics)+len(res.extra))
	for k := range res.Metrics {
		names = append(names, k)
	}
	for k := range res.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m, ok := res.Metrics[k]
		if !ok {
			m = res.extra[k]
		}
		fmt.Printf("%-40s %14.6f %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)

	all := map[string]metric{}
	for k, v := range res.extra {
		all[k] = v
	}
	for k, v := range res.Metrics {
		all[k] = v
	}
	file := filepath.Join(cfg.out, "results", st.fileStem()+".json")
	rec, err := json.MarshalIndent(struct {
		Stamp     stampInfo         `json:"stamp"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{st, res.Correct, res.Attempted, res.Failed, all}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# result file:", file)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
