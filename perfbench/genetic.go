package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"autophase/internal/core"
	"autophase/internal/ir"
	"autophase/internal/progen"
	"autophase/internal/search"
)

// genetic-search: search.Genetic(DefaultGA) over each of the paper's nine
// benchmarks with the same sample budget, one evaluation worker and no
// artifact store. A sweep searches all nine programs once from fresh
// core.Programs, so every sweep repeats the same work exactly.
const (
	gaBudget = 100 // objective evaluations per program per sweep
	gaLen    = 45  // candidate sequence length (the CLI's -len default)
	// gaSweepSeconds is one sweep's wall time on a 2-vCPU Xeon VM; a run
	// makes --seconds / gaSweepSeconds sweeps (at least two), so the
	// amount of work, and every count, depends on --seconds alone.
	gaSweepSeconds = 2.6
	// gaSetups is how many set-ups are timed before every sweep (the last
	// one's programs are searched), so that setup_s samples the whole run
	// as samples_per_s does, not only its first second.
	gaSetups = 2
)

// unitsFor sizes a run: the number of identical units (sweeps, trainings)
// that fill about `seconds` at the reference unit time, at least two.
func unitsFor(seconds int, unitSeconds float64) int {
	n := int(math.Round(float64(seconds) / unitSeconds))
	if n < 2 {
		n = 2
	}
	return n
}

// overrun reports whether a run has taken three times its nominal length;
// it then stops starting units, so a much slower build cannot blow the
// run's time limit. The run still reports, with fewer units.
func overrun(start time.Time, seconds int) bool {
	if time.Since(start) > 3*time.Duration(seconds)*time.Second {
		fmt.Println("perfbench: run exceeded 3x --seconds; stopping early with fewer units")
		return true
	}
	return false
}

// gaSeed is the CLI's per-program search seed (FNV-1a of the name), so a
// sweep's results match `autophase -algo genetic -workers 1 -budget 100`.
func gaSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// setupGenetic builds the nine modules and their core.Programs (the O0
// and -O3 baseline profiles), returning the programs and each
// NewProgram's seconds.
func setupGenetic(order []string) ([]*core.Program, []float64, error) {
	progs := make([]*core.Program, len(order))
	secs := make([]float64, len(order))
	for i, name := range order {
		m := progen.Benchmark(name)
		var err error
		secs[i] = timeIt(func() { progs[i], err = core.NewProgram(name, m) })
		if err != nil {
			return nil, nil, err
		}
	}
	return progs, secs, nil
}

// gaResult is what one program's search produced in one sweep.
type gaResult struct {
	best  int64
	seq   []int
	stats core.EvalStats
}

func runGenetic(cfg runConfig) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	tr := cfg.trace
	order := slices.Clone(progen.BenchmarkNames)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	fmt.Println("perfbench: program order", order)

	var setupS, newProgS []float64
	var progs []*core.Program
	sweeps := unitsFor(cfg.seconds, gaSweepSeconds)
	start := time.Now()
	var first map[string]gaResult
	var rates, latencies, evalS, selfS []float64
	var allocMB, mallocs, gcs float64
	perProg := map[string][]float64{}
	distinct := map[string]*seqSet{}
	for s := 0; s < sweeps && !(s > 1 && overrun(start, cfg.seconds)); s++ {
		err := setUp(gaSetups, &setupS, func() (err error) {
			var np []float64
			progs, np, err = setupGenetic(order)
			newProgS = append(newProgS, np...)
			return err
		})
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		// Sweep 0 is never traced: it gives the runtime.* figures, free of
		// the tracing bookkeeping's own allocations. The traced sweeps
		// repeat it exactly (checked below).
		tr := tr
		if s == 0 {
			tr = nil
		}
		results := map[string]gaResult{}
		var samples int64
		var searchS, sweepEval float64
		mem := startMem()
		sweepSpan := tr.reserve("sweep", fmt.Sprintf("sweep%d", s), 0, time.Now())
		for _, p := range progs {
			obj := core.NewEvaluator(p, 1).Objective(gaLen)
			trace := fmt.Sprintf("sweep%d/%s", s, p.Name)
			t0 := time.Now()
			progSpan := tr.reserve("search.Genetic", trace, sweepSpan, t0)
			if tr != nil {
				if distinct[p.Name] == nil {
					distinct[p.Name] = &seqSet{}
				}
				set, inner := distinct[p.Name], obj.EvalBatch
				obj.EvalBatch = func(seqs [][]int) []search.EvalOutcome {
					b0 := time.Now()
					res := inner(seqs)
					b1 := time.Now()
					tr.record("core.Evaluator.EvalBatch", trace, progSpan, b0, b1)
					sweepEval += b1.Sub(b0).Seconds()
					for _, q := range seqs {
						set.add(q)
					}
					return res
				}
			}
			search.Genetic(obj, rand.New(rand.NewSource(gaSeed(p.Name))), search.DefaultGA(), gaBudget)
			t1 := time.Now()
			tr.fill(progSpan, t1)
			dt := t1.Sub(t0).Seconds()
			searchS += dt
			latencies = append(latencies, dt*1e3)
			perProg[p.Name] = append(perProg[p.Name], dt)

			st := p.EvalStats()
			best, seq := p.BestCycles()
			results[p.Name] = gaResult{best, seq, st}
			samples += st.Samples
			out.attempted += st.Samples
			out.failed += st.Faults + st.Flagged
			if st.Samples != st.Successes+st.Faults+st.Flagged {
				out.fail("%s: samples=%d != successes+faults+flagged=%d", p.Name, st.Samples, st.Successes+st.Faults+st.Flagged)
			}
		}
		tr.fill(sweepSpan, time.Now())
		if s == 0 {
			allocMB, mallocs, gcs = mem.stop()
		}
		rates = append(rates, float64(samples)/searchS)
		if tr != nil {
			evalS = append(evalS, sweepEval)
			selfS = append(selfS, searchS-sweepEval)
		}
		if first == nil {
			first = results
			continue
		}
		for name, r := range results {
			f := first[name]
			if r.best != f.best || !slices.Equal(r.seq, f.seq) || r.stats != f.stats {
				out.fail("%s: sweep %d differs from sweep 0 (best %d vs %d, %v vs %v)", name, s, r.best, f.best, r.stats, f.stats)
			}
		}
	}

	// Output checks: each best design, rebuilt from a fresh module, must
	// behave exactly like the unoptimized program under the reference
	// interpreter.
	logSum := 0.0
	var total core.EvalStats
	for _, p := range progs {
		r := first[p.Name]
		name := p.Name
		if err := checkSequence(func() *ir.Module { return progen.Benchmark(name) }, r.seq); err != nil {
			out.fail("%s: %v", name, err)
		}
		logSum += math.Log(float64(p.O3Cycles) / float64(r.best))
		total.Add(r.stats)
		fmt.Printf("perfbench: %-9s O3=%d best=%d samples=%d search_s=%.3f\n",
			name, p.O3Cycles, r.best, r.stats.Samples, median(perProg[name]))
	}

	mt := out.metrics
	mt["setup_s"] = median(setupS)
	mt["samples_per_s"] = median(rates)
	mt["improv_vs_o3_pct"] = 100 * (math.Exp(logSum/float64(len(progs))) - 1)
	reportLatency(mt, latencies, "program searches")

	mt["core.new_program_ms"] = 1e3 * mean(newProgS)
	setEngineCounts(mt, total)
	mt["runtime.alloc_mb"] = allocMB
	mt["runtime.mallocs"] = mallocs
	mt["runtime.gc_cycles"] = gcs
	for name, ts := range perProg {
		mt["program."+name+".search_s"] = median(ts)
	}
	if cfg.trace != nil {
		mt["core.eval_s"] = median(evalS)
		mt["search.self_s"] = median(selfS)
		var rs []*replayer
		for _, name := range order {
			r := newReplayer(progen.Benchmark(name), tr, "replay/"+name)
			for _, q := range distinct[name].seqs {
				r.sequence(q)
			}
			rs = append(rs, r)
		}
		replayTotals(rs, mt["core.eval_s"], out)
	}
	fmt.Printf("perfbench: %d sweeps of %d programs, budget %d, %s\n", len(rates), len(progs), gaBudget, total)
	return out
}

// setEngineCounts reports the core counters of one unit's EvalStats.
func setEngineCounts(mt map[string]float64, st core.EvalStats) {
	mt["core.compiles"] = float64(st.Compiles)
	mt["core.seq_hit_frac"] = ratio(float64(st.CacheHits), float64(st.Samples+st.CacheHits))
	mt["core.fp_hit_frac"] = ratio(float64(st.FPHits), float64(st.Samples))
	mt["core.noop_ir_frac"] = ratio(float64(st.NoopIR), float64(st.Samples))
}

// reportLatency sets latency_p50_ms and latency_tail_ms from per-operation
// milliseconds and prints which percentile the tail is.
func reportLatency(mt map[string]float64, ms []float64, what string) {
	tail, pct, beyond := tailPercentile(ms)
	mt["latency_p50_ms"] = median(ms)
	mt["latency_tail_ms"] = tail
	fmt.Printf("perfbench: latency over %d %s: p50=%.2fms tail p%.1f=%.2fms (%d beyond)\n",
		len(ms), what, mt["latency_p50_ms"], pct, tail, beyond)
}
