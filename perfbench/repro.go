package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tpccmodel/internal/experiments"
	"tpccmodel/internal/model"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/sim"
	tpccworkload "tpccmodel/internal/workload"
)

// experimentsWorkload is the workload configuration experiments.Options
// simulates (the same key the pipeline's trace cache uses).
func experimentsWorkload(o experiments.Options) tpccworkload.Config {
	cfg := tpccworkload.DefaultConfig(o.Warehouses, o.Seed)
	cfg.DB.PageSize = o.PageSize
	return cfg
}

// reproDigestsFile holds the SHA-256 of every TSV that `tpcc-repro -scale
// reduced` writes with the default experiment seed, recorded from its
// output at the commit before this benchmark was added. After a change
// that is meant to alter an output, regenerate it from tpcc-repro's own
// output, as README.md shows.
//
//go:embed repro_digests.txt
var reproDigestsFile string

// namedSeries pairs an output file stem with its computed series.
type namedSeries struct {
	name string
	s    experiments.Series
}

// reproJob is one experiments.* call of the tpcc-repro job list. group
// names the per-layer metric its time adds to.
type reproJob struct {
	label string
	group string
	run   func() ([]namedSeries, error)
}

// reproGroups are the per-layer repro.<group>_frac metrics, in report order.
var reproGroups = []string{"prefetch", "table3", "policy_ablation", "optimality_gap",
	"response_validation", "page_size", "mix_sensitivity", "appendix_a", "model"}

func one(name string, s experiments.Series, err error) ([]namedSeries, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return []namedSeries{{name, s}}, nil
}

// reproJobs mirrors the job list of cmd/tpcc-repro (extensions included).
// streamTxns is the optimality-gap trace length; the Appendix A check
// draws 15 times as many transactions (20,000 and 300,000 in tpcc-repro).
// loads are the response-validation load fractions.
func reproJobs(opts experiments.Options, st *experiments.Study, streamTxns int64, loads []float64) []reproJob {
	sys := model.DefaultSystemParams()
	cost := model.DefaultCostModel()
	ablOpts := opts
	if ablOpts.BatchTxns > 20000 {
		ablOpts.Batches, ablOpts.BatchTxns, ablOpts.WarmupTxns = 5, 20000, 20000
	}
	return []reproJob{
		{"table1", "model", func() ([]namedSeries, error) {
			return one("table1", experiments.Table1(opts.Warehouses, opts.PageSize), nil)
		}},
		{"fig3", "model", func() ([]namedSeries, error) { return one("fig3", experiments.Fig3(10), nil) }},
		{"fig4", "model", func() ([]namedSeries, error) { return one("fig4", experiments.Fig4(10), nil) }},
		{"fig5", "model", func() ([]namedSeries, error) { return one("fig5", experiments.Fig5(200), nil) }},
		{"fig6", "model", func() ([]namedSeries, error) { return one("fig6", experiments.Fig6(1), nil) }},
		{"fig7", "model", func() ([]namedSeries, error) { return one("fig7", experiments.Fig7(200), nil) }},
		{"skew-headlines", "model", func() ([]namedSeries, error) {
			return one("skew-headlines", experiments.SkewHeadlines(), nil)
		}},
		{"tables6-7", "model", func() ([]namedSeries, error) {
			return one("tables6-7", experiments.Tables6and7([]int{2, 5, 10, 20, 30}), nil)
		}},
		{"table3", "table3", func() ([]namedSeries, error) {
			s, err := experiments.Table3(opts)
			return one("table3", s, err)
		}},
		{"fig8", "model", func() ([]namedSeries, error) {
			s, err := experiments.Fig8(st)
			return one("fig8", s, err)
		}},
		{"analytic-vs-sim", "model", func() ([]namedSeries, error) {
			s, err := experiments.AnalyticVsSimulated(st)
			return one("analytic-vs-sim", s, err)
		}},
		{"fig9", "model", func() ([]namedSeries, error) {
			s, err := experiments.Fig9(st, sys)
			return one("fig9", s, err)
		}},
		{"fig10", "model", func() ([]namedSeries, error) {
			fig10, err := experiments.Fig10(st, sys, cost)
			if err != nil {
				return nil, fmt.Errorf("fig10: %w", err)
			}
			return []namedSeries{{"fig10", fig10}, {"fig10-minima", experiments.Fig10Minima(fig10)}}, nil
		}},
		{"table4", "model", func() ([]namedSeries, error) {
			s, err := experiments.Table4(st, sys, 52)
			return one("table4", s, err)
		}},
		{"fig11", "model", func() ([]namedSeries, error) {
			s, err := experiments.Fig11(st, sys, 102, []int{1, 2, 5, 10, 20, 30})
			return one("fig11", s, err)
		}},
		{"fig12", "model", func() ([]namedSeries, error) {
			s, err := experiments.Fig12(st, sys, 102, []int{1, 2, 5, 10, 20, 30},
				[]float64{0.01, 0.05, 0.1, 0.5, 1.0})
			return one("fig12", s, err)
		}},
		{"policy-ablation", "policy_ablation", func() ([]namedSeries, error) {
			s, err := experiments.PolicyAblation(ablOpts, 52, []string{"lru", "fifo", "clock", "lfu", "2q", "slru"})
			return one("policy-ablation", s, err)
		}},
		{"optimality-gap", "optimality_gap", func() ([]namedSeries, error) {
			s, err := experiments.OptimalityGap(ablOpts, []float64{13, 26, 52, 104}, streamTxns)
			return one("optimality-gap", s, err)
		}},
		{"mix-sensitivity", "mix_sensitivity", func() ([]namedSeries, error) {
			s, err := experiments.MixSensitivity(ablOpts, 52)
			return one("mix-sensitivity", s, err)
		}},
		{"response-validation", "response_validation", func() ([]namedSeries, error) {
			s, err := experiments.ResponseValidation(st, sys, len(opts.BufferMB)/2, 8, loads)
			return one("response-validation", s, err)
		}},
		{"page-size", "page_size", func() ([]namedSeries, error) {
			pageOpts := ablOpts
			pageOpts.BufferMB = []float64{13, 26, 52, 104}
			s, err := experiments.PageSizeStudy(pageOpts)
			return one("page-size", s, err)
		}},
		{"appendix-a-validation", "appendix_a", func() ([]namedSeries, error) {
			s, err := experiments.AppendixAValidation(opts.Warehouses, 3, 15*streamTxns, opts.Seed)
			return one("appendix-a-validation", s, err)
		}},
	}
}

// parseDigests reads "name sha256" lines.
func parseDigests(text string) (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("bad digest line %q", line)
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func digest(s experiments.Series) (string, error) {
	var buf bytes.Buffer
	if err := s.WriteTSV(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// reproWorkload runs the tpcc-repro job list one job after another. The experiment seed
// stays at the pipeline's default so every TSV can be checked against the
// reference digests; the benchmark seed permutes the job order, which the
// pipeline's determinism contract says cannot change any output.
type reproWorkload struct {
	opts       experiments.Options
	streamTxns int64
	loads      []float64
	refs       map[string]string // reference digests; nil at the tiny size, which has none
	digests    map[string]string // computed by the last measured pass
}

func newRepro(size string) (*reproWorkload, error) {
	w := &reproWorkload{opts: experiments.Reduced(), streamTxns: 20_000,
		loads: []float64{0.2, 0.4, 0.6, 0.8, 0.9}}
	if size == sizeTiny {
		w.opts = experiments.Options{Warehouses: 1, Seed: 7, WarmupTxns: 200, Batches: 2,
			BatchTxns: 300, Level: 0.9, BufferMB: []float64{1, 2, 4}, PageSize: 4096}
		w.streamTxns, w.loads = 300, []float64{0.2}
		return w, nil
	}
	refs, err := parseDigests(reproDigestsFile)
	if err != nil {
		return nil, err
	}
	w.refs = refs
	return w, nil
}

// reproWorkers is the pool size each job's sweep runs on: the jobs run one
// after another, each fanned out over at most two cores. A serial job
// list takes about 70 s on two cores, more than the benchmark's time
// budget per run allows.
func reproWorkers() int { return min(2, runtime.NumCPU()) }

func (w *reproWorkload) meta() workloadMeta {
	return workloadMeta{Warehouses: w.opts.Warehouses, Workers: reproWorkers(),
		Notes: fmt.Sprintf("experiment seed %d, %d+%dx%d txns per curve", w.opts.Seed,
			w.opts.WarmupTxns, w.opts.Batches, w.opts.BatchTxns)}
}

// setup records the reference trace every curve simulation replays — the
// pipeline's input — into a fresh process-wide cache, several times, and
// reports the median.
func (w *reproWorkload) setup(rc *runCtx) (float64, error) {
	return medianOf(rc, func() (time.Duration, error) {
		collectGarbage()
		start := time.Now()
		err := w.recordTrace()
		return time.Since(start), err
	})
}

// recordTrace empties the process-wide trace cache and records the
// reference trace into it, so each pass starts with the trace cached and
// nothing else (no pre-mapped forms left by an earlier pass).
func (w *reproWorkload) recordTrace() error {
	o := w.opts
	sim.SharedTraces = sim.NewTraceCache()
	_, err := sim.SharedTraces.Get(experimentsWorkload(o), o.WarmupTxns+int64(o.Batches)*o.BatchTxns)
	return err
}

// measure runs the job list once (after Study.Prefetch, as tpcc-repro
// does) with the job order drawn from the seed, and checks every TSV.
func (w *reproWorkload) measure(rc *runCtx, tr *Tracer) (*phase, error) {
	if err := w.recordTrace(); err != nil {
		return nil, err
	}
	opts := w.opts
	opts.Workers = reproWorkers()
	st := experiments.NewStudy(opts)
	jobs := reproJobs(opts, st, w.streamTxns, w.loads)
	order := make([]int64, len(jobs))
	rng.New(rc.seed).Perm(order)

	ph := &phase{values: map[string]float64{}}
	groupS := map[string]float64{}
	w.digests = map[string]string{}
	start, cpu0 := time.Now(), cpuTime()
	root := tr.Begin("repro", 0, 0)
	sp := tr.Begin("experiments.Study.Prefetch", root, 0)
	t0 := time.Now()
	err := st.Prefetch(sim.PackSequential, sim.PackOptimized)
	tr.End(sp)
	groupS["prefetch"] += time.Since(t0).Seconds()
	ph.attempted++
	if err != nil {
		return nil, fmt.Errorf("prefetch: %w", err)
	}
	var outputs []namedSeries
	for n, i := range order {
		j := jobs[i]
		sp := tr.Begin("experiments."+j.label, root, int64(n+1))
		t0 := time.Now()
		out, err := j.run()
		tr.End(sp)
		groupS[j.group] += time.Since(t0).Seconds()
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.checks = append(ph.checks, fmt.Sprintf("%s: %v", j.label, err))
			continue
		}
		outputs = append(outputs, out...)
	}
	tr.End(root)
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	sp = tr.Begin("check.digests", 0, 0)
	t0 = time.Now()
	for _, ns := range outputs {
		d, err := digest(ns.s)
		if err != nil {
			return nil, err
		}
		w.digests[ns.name] = d
	}
	if w.refs != nil {
		bad := checkDigests(w.digests, w.refs)
		ph.checks = append(ph.checks, bad...)
		ph.failed += int64(len(bad))
		ph.attempted += int64(len(w.refs))
	}
	ph.values["check_s"] = time.Since(t0).Seconds()
	tr.End(sp)
	ph.elapsed = elapsed
	ph.ops = int64(len(jobs))
	ph.values["cpu_ms_per_op"] = cpu.Seconds() * 1e3 / float64(ph.ops)
	ph.values["heap_mb"] = heapMiB()
	runtime.KeepAlive(st)
	ph.values["repro_s"] = elapsed.Seconds()
	for _, g := range reproGroups {
		ph.values["repro."+g+"_frac"] = groupS[g] / elapsed.Seconds()
	}
	return ph, nil
}

// checkDigests compares computed TSV digests against the references and
// returns one message per mismatch, missing or unexpected output.
func checkDigests(got, want map[string]string) []string {
	var bad []string
	for name, ref := range want {
		switch d, ok := got[name]; {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s.tsv: not produced", name))
		case d != ref:
			bad = append(bad, fmt.Sprintf("%s.tsv: digest %s, want %s", name, d[:12], ref[:min(12, len(ref))]))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s.tsv: no reference digest", name))
		}
	}
	return bad
}

func (w *reproWorkload) finish(rc *runCtx, ph *phase, tr *Tracer) error { return nil }
