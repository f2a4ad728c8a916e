package main

import (
	"fmt"
	"slices"
	"time"

	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
)

// replayer re-runs sequences the engine evaluated through the layers one
// at a time, timing each layer's public entry point: pass application
// (passes.Manager.Apply), the structural fingerprint, dominator tree plus
// loop forest per function, feature extraction and one hls.Profiler. Like
// the engine, it extracts features and profiles once per distinct
// fingerprint.
type replayer struct {
	base  *ir.Module
	pm    *passes.Manager
	prof  *hls.Profiler
	seen  map[ir.Fingerprint]bool
	tr    *tracer
	trace string

	applyS, fpS, domS, featS, profS float64
	domCalls                        int
	profErrs                        int
}

func newReplayer(base *ir.Module, tr *tracer, trace string) *replayer {
	return &replayer{
		base: base, pm: passes.NewManager(),
		prof: hls.NewProfiler(hls.ProfileOptions{}),
		seen: make(map[ir.Fingerprint]bool), tr: tr, trace: trace,
	}
}

// timed runs fn as one span of the named layer and returns its seconds.
func (r *replayer) timed(name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.tr.record(name, r.trace, 0, t0, t1)
	return t1.Sub(t0).Seconds()
}

// sequence replays one whole sequence on a fresh clone of the program.
func (r *replayer) sequence(seq []int) { r.extend(r.base.Clone(), seq) }

// extend applies seq to m in place and analyses the result.
func (r *replayer) extend(m *ir.Module, seq []int) {
	r.applyS += r.timed("passes.Apply", func() { r.pm.Apply(m, seq) })
	var fp ir.Fingerprint
	r.fpS += r.timed("ir.Fingerprint", func() { fp = m.Fingerprint() })
	if r.seen[fp] {
		return
	}
	r.seen[fp] = true
	r.domS += r.timed("ir.DomLoops", func() {
		for _, f := range m.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			ir.FindLoops(f, ir.NewDomTree(f))
			r.domCalls++
		}
	})
	r.featS += r.timed("features.Extract", func() { features.Extract(m) })
	r.profS += r.timed("hls.ProfileFP", func() {
		if _, err := r.prof.ProfileFP(m, fp); err != nil {
			r.profErrs++
		}
	})
}

// replayTotals sums several replayers into the per-layer metrics of out.
// evalS is the engine time the replay is meant to explain. A sequence the
// replay's profiler cannot profile fails the run: the layer times and
// engine counts would then describe an error path.
func replayTotals(rs []*replayer, evalS float64, out *outcome) {
	var apply, fp, dom, feat, prof float64
	var domCalls, runs, changed int
	var st hls.ProfilerStats
	for _, r := range rs {
		if r.profErrs > 0 {
			out.fail("replay of %s: %d of its sequences failed to profile", r.trace, r.profErrs)
		}
		apply += r.applyS
		fp += r.fpS
		dom += r.domS
		domCalls += r.domCalls
		feat += r.featS
		prof += r.profS
		for _, s := range r.pm.Stats() {
			runs += s.Runs
			changed += s.Changed
		}
		ps := r.prof.Stats()
		st.StaticHits += ps.StaticHits
		st.VMHits += ps.VMHits
		st.InterpHits += ps.InterpHits
	}
	into := out.metrics
	into["passes.apply_s"] = apply
	into["passes.runs"] = float64(runs)
	into["passes.changed_frac"] = ratio(float64(changed), float64(runs))
	into["ir.fingerprint_s"] = fp
	into["ir.domloops_us"] = ratio(dom*1e6, float64(domCalls))
	into["features.extract_s"] = feat
	into["hls.profile_s"] = prof
	into["hls.static"] = float64(st.StaticHits)
	into["hls.vm"] = float64(st.VMHits)
	into["hls.interp"] = float64(st.InterpHits)
	into["replay.coverage"] = ratio(apply+fp+feat+prof, evalS)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seqSet collects distinct sequences in first-seen order.
type seqSet struct {
	seen map[string]bool
	seqs [][]int
}

func (s *seqSet) add(seq []int) {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	k := fmt.Sprint(seq)
	if !s.seen[k] {
		s.seen[k] = true
		s.seqs = append(s.seqs, slices.Clone(seq))
	}
}

// checkSequence re-applies seq to a fresh module and runs it under the
// reference tree-walking interpreter: the exit value and the full print
// trace must match the unoptimized module's.
func checkSequence(fresh func() *ir.Module, seq []int) error {
	ref, err := interp.Run(fresh(), interp.DefaultLimits)
	if err != nil {
		return fmt.Errorf("unoptimized reference run: %w", err)
	}
	opt := fresh()
	passes.Apply(opt, seq)
	got, err := interp.Run(opt, interp.DefaultLimits)
	if err != nil {
		return fmt.Errorf("optimized run of %v: %w", seq, err)
	}
	if got.Exit != ref.Exit {
		return fmt.Errorf("sequence %v: exit %d, reference %d", seq, got.Exit, ref.Exit)
	}
	if !slices.Equal(got.Trace, ref.Trace) {
		return fmt.Errorf("sequence %v: print trace differs from the reference (%d vs %d values)",
			seq, len(got.Trace), len(ref.Trace))
	}
	return nil
}
