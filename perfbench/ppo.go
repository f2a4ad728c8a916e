package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"autophase/internal/core"
	"autophase/internal/ir"
	"autophase/internal/progen"
	"autophase/internal/rl"
)

// ppo-train: the CLI's `-algo ppo` path. rl.DefaultPPO (256x256 nets,
// RolloutSteps 128) trains for ppoSteps environment steps on one
// program's PhaseEnv with the pass-histogram observation. Each training
// starts from a fresh core.Program and agent, so every training repeats
// the same work exactly. The training seed is the CLI's (PPOConfig.Seed 1),
// so --seed does not enter this workload.
const (
	ppoProgram = "blowfish"
	ppoSteps   = 1500
	ppoLen     = 45 // episode length (the CLI's -len default)
	// ppoTrainSeconds is one training's wall time on a 2-vCPU Xeon VM; a
	// run makes --seconds / ppoTrainSeconds trainings (at least two).
	ppoTrainSeconds = 7.0
	// ppoSetups is how many set-ups are timed before every training (the
	// last one is trained), so that setup_s samples the whole run.
	ppoSetups  = 8
	nnProbeObs = 512 // recorded observations the nn timing replays
)

type ppoSetup struct {
	p     *core.Program
	env   *core.PhaseEnv
	agent *rl.PPO
}

func setupPPO() (ppoSetup, float64, error) {
	m := progen.Benchmark(ppoProgram)
	var p *core.Program
	var err error
	np := timeIt(func() { p, err = core.NewProgram(ppoProgram, m) })
	if err != nil {
		return ppoSetup{}, 0, err
	}
	ec := core.DefaultEnv()
	ec.EpisodeLen = ppoLen
	ec.Obs = core.ObsHistogram
	env := core.NewPhaseEnv(p, ec)
	pc := rl.DefaultPPO()
	pc.RolloutSteps = 128
	return ppoSetup{p, env, rl.NewPPO(pc, env.ObsSize(), env.ActionDims())}, np, nil
}

// timedEnv wraps the agent's environment: it times Reset and Step (the
// engine side of training), records observations for the nn probe, and
// records each episode's passes for the layer replay.
type timedEnv struct {
	*core.PhaseEnv
	tr       *tracer
	trace    string
	parent   int64 // current TrainIteration span
	stepS    float64
	obs      [][]float64
	episodes [][]int
}

func (e *timedEnv) timed(name string, t0 time.Time) {
	t1 := time.Now()
	e.stepS += t1.Sub(t0).Seconds()
	e.tr.record(name, e.trace, e.parent, t0, t1)
}

func (e *timedEnv) keep(o []float64) {
	if len(e.obs) < nnProbeObs {
		e.obs = append(e.obs, slices.Clone(o))
	}
}

func (e *timedEnv) Reset() []float64 {
	t0 := time.Now()
	o := e.PhaseEnv.Reset()
	e.timed("core.PhaseEnv.Reset", t0)
	e.episodes = append(e.episodes, nil)
	e.keep(o)
	return o
}

func (e *timedEnv) Step(a []int) ([]float64, float64, bool) {
	t0 := time.Now()
	o, r, done := e.PhaseEnv.Step(a)
	e.timed("core.PhaseEnv.Step", t0)
	ep := &e.episodes[len(e.episodes)-1]
	if seq := e.PhaseEnv.Sequence(); len(seq) > len(*ep) {
		*ep = append(*ep, seq[len(seq)-1])
	}
	e.keep(o)
	return o, r, done
}

func runPPO(cfg runConfig) *outcome {
	out := &outcome{metrics: map[string]float64{}}
	tr := cfg.trace

	var setupS, newProgS []float64
	var su ppoSetup
	trainings := unitsFor(cfg.seconds, ppoTrainSeconds)
	start := time.Now()
	var rates, latencies, envS, learnerS []float64
	var allocMB, mallocs, gcs float64
	var firstBest int64
	var firstSeq []int
	var firstStats core.EvalStats
	var probe *timedEnv
	for t := 0; t < trainings && !(t > 1 && overrun(start, cfg.seconds)); t++ {
		err := setUp(ppoSetups, &setupS, func() (err error) {
			var np float64
			su, np, err = setupPPO()
			newProgS = append(newProgS, np)
			return err
		})
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		// Training 0 is never traced: it gives the runtime.* figures, free
		// of timedEnv's recorded observations and episodes. The traced
		// trainings repeat it exactly (checked below).
		tr := tr
		if t == 0 {
			tr = nil
		}
		trace := fmt.Sprintf("training%d", t)
		envs := []rl.Env{su.env}
		var te *timedEnv
		if tr != nil {
			te = &timedEnv{PhaseEnv: su.env, tr: tr, trace: trace}
			envs = []rl.Env{te}
		}
		mem := startMem()
		trainSpan := tr.reserve("rl.PPO.Train", trace, 0, time.Now())
		var trainS float64
		for steps := 0; steps < ppoSteps; {
			t0 := time.Now()
			if te != nil {
				te.parent = tr.reserve("rl.PPO.TrainIteration", trace, trainSpan, t0)
			}
			st := su.agent.TrainIteration(envs)
			t1 := time.Now()
			if te != nil {
				tr.fill(te.parent, t1)
			}
			dt := t1.Sub(t0).Seconds()
			trainS += dt
			latencies = append(latencies, dt*1e3)
			steps = st.TotalSteps
		}
		tr.fill(trainSpan, time.Now())
		if t == 0 {
			allocMB, mallocs, gcs = mem.stop()
		}

		st := su.p.EvalStats()
		best, seq := su.p.BestCycles()
		rates = append(rates, float64(st.Samples)/trainS)
		out.attempted += st.Samples
		out.failed += st.Faults + st.Flagged
		if st.Samples != st.Successes+st.Faults+st.Flagged {
			out.fail("samples=%d != successes+faults+flagged=%d", st.Samples, st.Successes+st.Faults+st.Flagged)
		}
		if te != nil {
			envS = append(envS, te.stepS)
			learnerS = append(learnerS, trainS-te.stepS)
			if probe == nil {
				probe = te
			}
		}
		if t == 0 {
			firstBest, firstSeq, firstStats = best, seq, st
		} else if best != firstBest || !slices.Equal(seq, firstSeq) || st != firstStats {
			out.fail("training %d differs from training 0 (best %d vs %d, %v vs %v)", t, best, firstBest, st, firstStats)
		}
	}

	if err := checkSequence(func() *ir.Module { return progen.Benchmark(ppoProgram) }, firstSeq); err != nil {
		out.fail("%s: %v", ppoProgram, err)
	}
	fmt.Printf("perfbench: %d trainings of %d steps on %s: O3=%d best=%d %s\n",
		len(rates), ppoSteps, ppoProgram, su.p.O3Cycles, firstBest, firstStats)

	mt := out.metrics
	mt["setup_s"] = median(setupS)
	mt["samples_per_s"] = median(rates)
	mt["improv_vs_o3_pct"] = 100 * (float64(su.p.O3Cycles)/float64(firstBest) - 1)
	reportLatency(mt, latencies, "training iterations")

	mt["core.new_program_ms"] = 1e3 * mean(newProgS)
	setEngineCounts(mt, firstStats)
	mt["runtime.alloc_mb"] = allocMB
	mt["runtime.mallocs"] = mallocs
	mt["runtime.gc_cycles"] = gcs
	if tr != nil {
		mt["core.env_step_s"] = median(envS)
		mt["rl.learner_s"] = median(learnerS)
		r := newReplayer(progen.Benchmark(ppoProgram), tr, "replay/"+ppoProgram)
		for _, ep := range probe.episodes {
			m := r.base.Clone()
			for _, pass := range ep {
				r.extend(m, []int{pass})
			}
		}
		replayTotals([]*replayer{r}, mt["core.env_step_s"], out)
		probeNN(su.agent, probe.obs, mt)
	}
	return out
}

// probeNN times the trained agent's policy and value networks on recorded
// observations (filtered as the agent sees them): one Forward and one
// Backward of each net per observation, plus heap allocations per Backward.
func probeNN(agent *rl.PPO, raw [][]float64, mt map[string]float64) {
	obs := make([][]float64, len(raw))
	for i, o := range raw {
		obs[i] = o
		if agent.Filter != nil {
			obs[i] = agent.Filter.Apply(o)
		}
	}
	pol, val := agent.Policy.Net, agent.Value
	fwd := timeIt(func() {
		for _, o := range obs {
			pol.Forward(o)
			val.Forward(o)
		}
	})
	gp, gv := pol.NewGrads(), val.NewGrads()
	gradP := make([]float64, pol.Sizes[len(pol.Sizes)-1])
	for i := range gradP {
		gradP[i] = 1e-3
	}
	gradV := []float64{1e-3}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bwd := timeIt(func() {
		for _, o := range obs {
			pol.Backward(o, gradP, gp)
			val.Backward(o, gradV, gv)
		}
	})
	runtime.ReadMemStats(&m1)
	n := float64(len(obs))
	mt["nn.forward_us"] = fwd * 1e6 / n
	mt["nn.backward_us"] = bwd * 1e6 / n
	mt["nn.allocs_per_backward"] = float64(m1.Mallocs-m0.Mallocs) / (2 * n)
}
