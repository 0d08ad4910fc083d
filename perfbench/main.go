// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine, the sharded cluster or the paper
// reproduction pipeline, times it from outside through public calls,
// checks its outputs, and prints one JSON result as its last line.
//
//	perfbench -workload engine-resident-2w -seed 1 -seconds 10 -trace 0
//	perfbench -workload all -seed 1 -seconds 10
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced pass, and the spans are
// written to the output directory. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
)

const sizeTiny = "tiny"

// A run sets its workload up at least setupRuns times, and repeats a
// quick set-up until the set-ups add up to setupFloor, at most
// 3*setupRuns times in all; setup_s is the median.
const (
	setupRuns  = 3
	setupFloor = 3 * time.Second
)

// Metric kinds: e2e metrics make the untraced JSON result, layer metrics
// the traced one; report metrics are printed only.
const (
	kindE2E = iota
	kindReport
	kindLayer
)

type metricDef struct {
	name, unit string
	kind       int
}

// catalog lists every metric the benchmark prints. The e2e and layer
// entries must match BENCHMARK.json (a test checks this).
var catalog = buildCatalog()

func buildCatalog() []metricDef {
	m := []metricDef{
		{"setup_s", "s", kindE2E},
		{"cpu_ms_per_op", "ms", kindE2E},
		{"heap_mb", "MiB", kindE2E},

		{"ops_per_s", "1/s", kindReport},

		{"tpmC", "txn/min", kindReport},
		{"txn_p50_us", "us", kindReport},
		{"txn_p99_us", "us", kindReport},
		{"txn_samples", "count", kindReport},
		{"stocklevel_p50_us", "us", kindReport},
		{"failed_frac", "ratio", kindReport},
		{"recover_s", "s", kindReport},
		{"repro_s", "s", kindReport},
	}
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		m = append(m, metricDef{"db." + typeName(t) + "_p50_us", "us", kindReport})
	}
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		m = append(m, metricDef{"db." + typeName(t) + "_busy_frac", "ratio", kindLayer})
	}
	m = append(m,
		metricDef{"db.retries_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"check_s", "s", kindLayer},
		metricDef{"index.rebuild_frac", "ratio", kindLayer},
		metricDef{"lock.acquires_per_txn", "1/txn", kindLayer},
		metricDef{"lock.waits_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"lock.deadlocks_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"bufmgr.fixes_per_txn", "1/txn", kindLayer},
		metricDef{"bufmgr.miss_rate", "ratio", kindLayer},
	)
	for _, rel := range layerRelations {
		m = append(m, metricDef{"bufmgr.miss_rate." + rel.String(), "ratio", kindLayer})
	}
	m = append(m,
		metricDef{"bufmgr.evicts_per_txn", "1/txn", kindLayer},
		metricDef{"bufmgr.writebacks_per_txn", "1/txn", kindLayer},
		metricDef{"storage.reads_per_txn", "1/txn", kindLayer},
		metricDef{"storage.writes_per_txn", "1/txn", kindLayer},
		metricDef{"wal.forces_per_commit", "ratio", kindLayer},
		metricDef{"wal.recover_rows", "count", kindLayer},
		metricDef{"wal.replay_frac", "ratio", kindLayer},
		metricDef{"mvcc.write_conflicts_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"mvcc.ssi_aborts_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"mvcc.version_chains", "count", kindLayer},
		metricDef{"shard.dist_frac", "ratio", kindLayer},
		metricDef{"shard.dist_aborts_per_ktxn", "1/ktxn", kindLayer},
		metricDef{"shard.retries_per_ktxn", "1/ktxn", kindLayer},
	)
	for _, g := range reproGroups {
		m = append(m, metricDef{"repro." + g + "_frac", "ratio", kindLayer})
	}
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		for _, c := range []string{"fixes", "reads", "writebacks", "locks", "forces"} {
			m = append(m, metricDef{"table4." + typeName(t) + "." + c, "1/txn", kindLayer})
		}
	}
	return append(m, metricDef{"trace.overhead_frac", "ratio", kindLayer})
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"engine-resident-2w", "engine-paging-1w", "cluster-ssi-1w", "repro-reduced"}

// workload is one benchmark workload. setup returns the median set-up
// time in seconds; measure runs one pass (traced when tr is non-nil);
// finish checks the outputs after the last pass.
type workload interface {
	meta() workloadMeta
	setup(rc *runCtx) (float64, error)
	measure(rc *runCtx, tr *Tracer) (*phase, error)
	finish(rc *runCtx, ph *phase, tr *Tracer) error
}

func newWorkload(name, size string) (workload, error) {
	switch name {
	case "engine-resident-2w":
		return newResident(size), nil
	case "engine-paging-1w":
		return newPaging(size), nil
	case "cluster-ssi-1w":
		return newCluster(size), nil
	case "repro-reduced":
		return newRepro(size)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

// runCtx carries one run's arguments.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	setups  int           // least number of set-ups
	floor   time.Duration // least total set-up time
	setupsN int           // set-ups made
}

// phase is what one measured pass produced. failed counts failed
// operations and failed checks; only a failed check (an output found
// wrong) makes the run incorrect.
type phase struct {
	elapsed           time.Duration
	ops               int64 // acknowledged operations (transactions or jobs)
	attempted, failed int64
	checks            []string // failed checks
	values            map[string]float64
	notes             []string // extra report lines
}

// opFailed counts one operation that returned an error and reports it.
func (ph *phase) opFailed(err error) {
	ph.attempted++
	ph.failed++
	ph.notes = append(ph.notes, "operation failed: "+err.Error())
}

// workloadMeta describes a workload's configuration for the run record.
type workloadMeta struct {
	Warehouses  int    `json:"warehouses"`
	LoadedPages int64  `json:"loaded_pages,omitempty"`
	PoolPages   int    `json:"pool_pages,omitempty"`
	CC          string `json:"cc,omitempty"`
	Workers     int    `json:"workers"`
	// Procs is the GOMAXPROCS the workload runs with; 0 keeps the default.
	Procs int    `json:"procs,omitempty"`
	Notes string `json:"notes,omitempty"`
}

// runMeta is recorded with every result.
type runMeta struct {
	cliutil.Hardware
	Commit   string       `json:"commit"`
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    int          `json:"trace"`
	Setups   int          `json:"setups"`
	Config   workloadMeta `json:"config"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is a finished run: the result plus everything the report and
// the run record show.
type outcome struct {
	result
	meta   runMeta
	values map[string]float64
	checks []string
	notes  []string
	spans  *Tracer
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for the run record and spans")
	)
	flag.Parse()
	if *name == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second, setups: setupRuns, floor: setupFloor}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, err := newWorkload(*name, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	o, err := run(*name, w, rc, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := record(*outDir, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, o)
	line, err := json.Marshal(o.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !o.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and checks it. Traced runs make
// two passes, traced first (so the fixed-count traced segment starts from
// the freshly loaded state and its counts repeat), then untraced; the
// difference of their operation rates is the tracing overhead.
func run(name string, w workload, rc *runCtx, traced bool) (*outcome, error) {
	if p := w.meta().Procs; p > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	}
	setupS, err := w.setup(rc)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var tr *Tracer
	if traced {
		tr = newTracer()
	}
	ph, err := w.measure(rc, tr)
	if err != nil {
		return nil, err
	}
	if traced {
		plain, err := w.measure(rc, nil)
		if err != nil {
			return nil, err
		}
		ph.values["trace.overhead_frac"] = 1 - rate(ph)/rate(plain)
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		ph.checks = append(ph.checks, plain.checks...)
		ph.notes = append(ph.notes, plain.notes...)
	}
	if err := w.finish(rc, ph, tr); err != nil {
		return nil, err
	}
	v := ph.values
	v["setup_s"] = setupS
	if _, ok := v["ops_per_s"]; !ok {
		v["ops_per_s"] = rate(ph)
	}
	v["failed_frac"] = ratio(ph.failed, ph.attempted)

	o := &outcome{values: v, checks: ph.checks, notes: ph.notes, spans: tr}
	o.meta = runMeta{Hardware: cliutil.HardwareInfo(), Commit: commit(), Workload: name,
		Seed: rc.seed, Seconds: rc.seconds.Seconds(), Setups: rc.setupsN, Config: w.meta()}
	kind := kindE2E
	if traced {
		o.meta.Trace = 1
		kind = kindLayer
	}
	o.Metrics = map[string]metricValue{}
	for _, m := range catalog {
		if m.kind != kind {
			continue
		}
		x := v[m.name] // a layer the workload does no work in reads 0
		if math.IsNaN(x) || math.IsInf(x, 0) {
			o.checks = append(o.checks, fmt.Sprintf("metric %s is not finite", m.name))
			ph.failed++
			x = 0
		}
		o.Metrics[m.name] = metricValue{Value: x, Unit: m.unit}
	}
	o.Attempted, o.Failed = max(ph.attempted, 1), ph.failed
	o.Correct = len(o.checks) == 0
	return o, nil
}

// rate is acknowledged operations per second of the pass.
func rate(ph *phase) float64 {
	if ph.elapsed <= 0 {
		return 0
	}
	return float64(ph.ops) / ph.elapsed.Seconds()
}

func heapMiB() float64 {
	collectGarbage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// collectGarbage runs two collections so that objects released by
// finalizers in the first are gone too.
func collectGarbage() {
	runtime.GC()
	runtime.GC()
}

// commit returns the VCS revision the binary was built from, when the
// build had one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func unitOf(name string) string {
	for _, m := range catalog {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func kindOf(name string) int {
	for _, m := range catalog {
		if m.name == name {
			return m.kind
		}
	}
	return kindReport
}

// printReport prints the run metadata, every measured metric by name and
// unit, the extra report lines and the failed checks.
func printReport(w io.Writer, o *outcome) {
	meta, _ := json.Marshal(o.meta)
	fmt.Fprintf(w, "# meta %s\n", meta)
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, o.values[n], unitOf(n))
	}
	for _, l := range o.notes {
		fmt.Fprintf(w, "# %s\n", l)
	}
	for _, c := range o.checks {
		fmt.Fprintf(w, "# check failed: %s\n", c)
	}
}

// record writes the run record (and the spans of a traced run) to dir.
func record(dir string, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d-trace%d", o.meta.Workload, o.meta.Seed, o.meta.Trace))
	rec := struct {
		Meta   runMeta            `json:"meta"`
		Result result             `json:"result"`
		Values map[string]float64 `json:"values"`
		Checks []string           `json:"failed_checks"`
		Notes  []string           `json:"notes,omitempty"`
		Self   map[string]float64 `json:"span_self_seconds,omitempty"`
	}{Meta: o.meta, Result: o.result, Values: finiteOnly(o.values), Checks: o.checks, Notes: o.notes}
	if o.spans != nil {
		rec.Self = map[string]float64{}
		for n, d := range SelfTimes(o.spans.Spans()) {
			rec.Self[n] = d.Seconds()
		}
		if err := o.spans.WriteFile(stem + "-spans.json"); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".json", b, 0o644)
}

func finiteOnly(v map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(v))
	for k, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out[k] = x
		}
	}
	return out
}

// runAll runs every workload in its own child process (so heap_mb sees
// only that workload), streams each report, and then prints every
// end-to-end and report metric of every workload by name and unit. It
// returns the exit code.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	var summary []string
	for _, name := range workloadNames {
		childArgs := []string{"-workload", name}
		for i := 0; i < len(args); i++ {
			switch a := strings.TrimLeft(args[i], "-"); {
			case a == "workload":
				i++
			case !strings.HasPrefix(a, "workload="):
				childArgs = append(childArgs, args[i])
			}
		}
		res, metrics, err := runChild(exe, childArgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
		for _, l := range metrics {
			summary = append(summary, fmt.Sprintf("%-20s %s", name, l))
		}
		if res != nil {
			summary = append(summary, fmt.Sprintf("%-20s correct=%v attempted=%d failed=%d",
				name, res.Correct, res.Attempted, res.Failed))
		}
	}
	fmt.Println("# summary")
	for _, l := range summary {
		fmt.Println(l)
	}
	return code
}

// runChild runs one workload process and copies its output through. It
// returns the result parsed from the last line and the child's metric
// lines other than per-layer ones.
func runChild(exe string, args []string) (*result, []string, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	var last string
	var metrics []string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" && kindOf(f[1]) != kindLayer {
			metrics = append(metrics, strings.TrimPrefix(last, "metric "))
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, metrics, errors.Join(waitErr, scanErr, fmt.Errorf("no result line: %w", err))
	}
	return &res, metrics, errors.Join(waitErr, scanErr)
}
