// Command perfbench is the repository's benchmark: it drives the
// phase-ordering engine through its public packages on one named workload,
// checks the outputs against the reference interpreter, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also wraps each layer's public calls, replays the evaluated sequences
// layer by layer, writes its spans under .bench_build/trace, and reports
// the per-layer metrics instead.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload genetic-search --seed 1 --seconds 30 --trace 0
//
// Workloads: genetic-search, ppo-train, serve-openloop (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"autophase/internal/progen"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"improv_vs_o3_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 there (no nn on genetic-search, no artifact store
// off serve-openloop, no replay on serve-openloop).
var perLayer = append([]metricDef{
	{"search.self_s", "s"},
	{"core.eval_s", "s"},
	{"core.compiles", "count"},
	{"core.seq_hit_frac", "ratio"},
	{"core.fp_hit_frac", "ratio"},
	{"core.noop_ir_frac", "ratio"},
	{"passes.apply_s", "s"},
	{"passes.runs", "count"},
	{"passes.changed_frac", "ratio"},
	{"ir.fingerprint_s", "s"},
	{"ir.domloops_us", "us"},
	{"features.extract_s", "s"},
	{"hls.profile_s", "s"},
	{"hls.static", "count"},
	{"hls.vm", "count"},
	{"hls.interp", "count"},
	{"replay.coverage", "ratio"},
	{"core.env_step_s", "s"},
	{"rl.learner_s", "s"},
	{"nn.forward_us", "us"},
	{"nn.backward_us", "us"},
	{"nn.allocs_per_backward", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"core.new_program_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_depth_mean", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.late_ms", "ms"},
	{"serve.shed", "count"},
	{"artifact.disk_hit_frac", "ratio"},
	{"artifact.dir_mb", "MB"},
}, programMetrics()...)

// programMetrics lists genetic-search's per-program search times.
func programMetrics() []metricDef {
	var out []metricDef
	for _, n := range progen.BenchmarkNames {
		out = append(out, metricDef{"program." + n + ".search_s", "s"})
	}
	return out
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
	trace   *tracer // nil with -trace 0
	outDir  string  // scratch space inside the checkout
}

// outcome is one workload run: operation counts, output-check failures,
// and every metric it measured (end-to-end and per-layer alike).
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) *outcome{
	"genetic-search": runGenetic,
	"ppo-train":      runPPO,
	"serve-openloop": runServe,
}

func main() {
	workload := flag.String("workload", "", "genetic-search, ppo-train or serve-openloop")
	seed := flag.Int64("seed", 1, "workload seed: generates the inputs the engine sees")
	seconds := flag.Int("seconds", 30, "nominal measured seconds; sizes the run's work")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload genetic-search|ppo-train|serve-openloop, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}

	// Pin the scheduler to the machine's CPUs and say so: GOMAXPROCS
	// ignores container quotas, so the value is part of the result.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	outDir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: outDir}
	if *traceFlag == 1 {
		cfg.trace = newTracer()
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s\n",
		*workload, *seed, *seconds, *traceFlag, procs, runtime.Version())

	out := run(cfg)
	out.metrics["peak_rss_mb"] = peakRSSMB()

	defs := endToEnd
	if cfg.trace != nil {
		defs = perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.trace.write(path); err != nil {
			out.fail("writing spans: %v", err)
		} else {
			fmt.Printf("perfbench: wrote %d spans to %s\n", cfg.trace.len(), path)
		}
		// The traced run's end-to-end numbers, so traced minus untraced
		// gives the tracing overhead.
		fmt.Println("perfbench: traced end-to-end", renderLine(endToEnd, out.metrics))
	}
	for _, p := range out.problems {
		fmt.Println("perfbench: CHECK FAILED:", p)
	}
	for _, d := range endToEnd {
		if _, ok := out.metrics[d.name]; !ok {
			out.fail("workload did not measure %s", d.name)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{out.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// renderLine prints metrics in a stable name=value order.
func renderLine(defs []metricDef, m map[string]float64) string {
	s := ""
	for _, d := range defs {
		s += fmt.Sprintf(" %s=%.6g%s", d.name, m[d.name], d.unit)
	}
	return s
}

// peakRSSMB is the process's high-water resident set (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the middle value (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile returns the value at the highest percentile that still
// has at least ten samples beyond it, that percentile, and how many
// samples lie beyond it. With ten or fewer samples it falls back to the
// minimum and reports the shortfall through the count.
func tailPercentile(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), len(s) - 1 - i
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// setUp runs fn n times, appending each run's wall time to secs, and stops
// at the first error. setup_s is the median of a run's set-ups: one set-up
// takes milliseconds to a quarter second, too short to be steady on its
// own.
func setUp(n int, secs *[]float64, fn func() error) error {
	for i := 0; i < n; i++ {
		var err error
		*secs = append(*secs, timeIt(func() { err = fn() }))
		if err != nil {
			return err
		}
	}
	return nil
}

// memDelta snapshots the Go runtime's allocation counters.
type memDelta struct{ m runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.m)
	return d
}

// stop returns MB allocated, mallocs and GC cycles since startMem.
func (d *memDelta) stop() (allocMB, mallocs, gcs float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-d.m.TotalAlloc) / (1 << 20),
		float64(now.Mallocs - d.m.Mallocs),
		float64(now.NumGC - d.m.NumGC)
}
