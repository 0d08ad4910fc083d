package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that each named metric of that mode is emitted,
// finite and has a unit, that the outputs pass their checks, and that a
// run gives back the GOMAXPROCS it changed.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("loads databases")
	}
	procs := runtime.GOMAXPROCS(0)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, sizeTiny)
			if err != nil {
				t.Fatal(err)
			}
			rc := &runCtx{seed: 3, seconds: 200 * time.Millisecond, setups: 1}
			o, err := run(name, w, rc, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if p := runtime.GOMAXPROCS(0); p != procs {
				t.Errorf("%s traced=%v: GOMAXPROCS %d after the run, %d before", name, traced, p, procs)
			}
			if !o.Correct || o.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d checks=%v", name, traced, o.Correct, o.Attempted, o.checks)
			}
			kind := kindE2E
			if traced {
				kind = kindLayer
			}
			n := 0
			for _, m := range catalog {
				if m.kind != kind {
					continue
				}
				n++
				v, ok := o.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.name, v.Value)
				case v.Unit == "":
					t.Errorf("%s traced=%v: metric %s has no unit", name, traced, m.name)
				}
			}
			if len(o.Metrics) != n {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(o.Metrics), n)
			}
			if !traced {
				for _, m := range []string{"setup_s", "cpu_ms_per_op", "heap_mb"} {
					if o.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, o.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestPagingCountsRepeat checks that the traced paging run's counts —
// Table 4 from outside, evictions and storage I/O — repeat exactly for
// one seed: one worker and a fixed-count traced segment make them
// deterministic.
func TestPagingCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads databases")
	}
	var first map[string]metricValue
	for i := 0; i < 2; i++ {
		o, err := run("engine-paging-1w", newPaging(sizeTiny), &runCtx{seed: 5, seconds: 100 * time.Millisecond, setups: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = o.Metrics
			continue
		}
		for name, v := range o.Metrics {
			if strings.HasPrefix(name, "table4.") || strings.HasPrefix(name, "storage.") || name == "bufmgr.evicts_per_txn" {
				if v != first[name] {
					t.Errorf("%s: %v then %v", name, first[name].Value, v.Value)
				}
			}
		}
	}
	if first["table4.neworder.fixes"].Value == 0 || first["bufmgr.evicts_per_txn"].Value == 0 {
		t.Errorf("tiny paging run did no paging: %v", first)
	}
}

// failingWorkload has one operation fail and, when badCheck is set, one
// output check fail.
type failingWorkload struct{ badCheck bool }

func (failingWorkload) meta() workloadMeta                { return workloadMeta{} }
func (failingWorkload) setup(rc *runCtx) (float64, error) { return 0.5, nil }
func (failingWorkload) measure(rc *runCtx, tr *Tracer) (*phase, error) {
	ph := &phase{elapsed: time.Second, ops: 10, attempted: 10, values: map[string]float64{"heap_mb": 1}}
	ph.opFailed(errors.New("boom"))
	return ph, nil
}
func (f failingWorkload) finish(rc *runCtx, ph *phase, tr *Tracer) error {
	ph.attempted++
	if f.badCheck {
		ph.failed++
		ph.checks = append(ph.checks, "consistency: broken")
	}
	return nil
}

// TestFailedOperationVersusFailedCheck checks that a failed operation
// counts in failed without making the run incorrect, and that a failed
// check does both.
func TestFailedOperationVersusFailedCheck(t *testing.T) {
	rc := &runCtx{seed: 1, seconds: time.Second, setups: 1}
	o, err := run("fake", failingWorkload{}, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Failed != 1 || o.Attempted != 12 {
		t.Errorf("failed operation: correct=%v failed=%d attempted=%d", o.Correct, o.Failed, o.Attempted)
	}
	o, err = run("fake", failingWorkload{badCheck: true}, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct || o.Failed != 2 {
		t.Errorf("failed check: correct=%v failed=%d", o.Correct, o.Failed)
	}
}

// TestSelfTimes checks the span self-time arithmetic: a parent's self
// time excludes the union of its children's intervals, clipped to the
// parent, however the children overlap.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a: union 10..40
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 15},
		{ID: 6, Parent: 1, Name: "open", Start: 50, End: -1}, // never closed: ignored
		{ID: 7, Name: "c", Start: 200, End: 205},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 30 - 10, // children cover 10..40 and 90..100
		"a":    20 - 3,
		"b":    20,
		"c":    30 + 5,
		"leaf": 3,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("unclosed span counted")
	}
}

// TestCPUSampler checks that the sampler turns busy slices into a positive
// CPU cost per operation.
func TestCPUSampler(t *testing.T) {
	s := startCPUSampler(5 * time.Millisecond)
	var x uint64
	for deadline := time.Now().Add(60 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		s.ops.Add(1)
	}
	if ms := s.finish(); !(ms > 0) || math.IsInf(ms, 0) {
		t.Fatalf("cpu ms per op = %v (x=%d)", ms, x)
	}
	if len(s.perOpMS) < 2 {
		t.Errorf("%d slices in 60 ms of 5 ms slices", len(s.perOpMS))
	}
}

// TestCorruptDigestFailsRun corrupts one reference digest and checks
// that the repro run is reported as failed.
func TestCorruptDigestFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny job list twice")
	}
	rc := &runCtx{seed: 1, seconds: time.Second, setups: 1}
	w, err := newRepro(sizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run("repro-reduced", w, rc, false); err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]string, len(w.digests))
	for name, d := range w.digests {
		refs[name] = d
	}
	w.refs = refs
	if o, err := run("repro-reduced", w, rc, false); err != nil || !o.Correct {
		t.Fatalf("rerun against its own digests: err=%v checks=%v", err, o.checks)
	}
	refs["fig8"] = strings.Repeat("0", 64)
	o, err := run("repro-reduced", w, rc, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct || o.Failed == 0 {
		t.Fatalf("corrupted digest not reported: correct=%v failed=%d", o.Correct, o.Failed)
	}
	if len(o.checks) != 1 || !strings.HasPrefix(o.checks[0], "fig8.tsv: digest") {
		t.Errorf("checks = %v", o.checks)
	}
}

// TestReferenceDigests checks the embedded reference file covers every
// TSV of the job list.
func TestReferenceDigests(t *testing.T) {
	refs, err := parseDigests(reproDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 23 {
		t.Errorf("%d reference digests, want 23 (22 jobs, fig10 writes two)", len(refs))
	}
	for name, d := range refs {
		if len(d) != 64 {
			t.Errorf("%s: digest %q is not SHA-256 hex", name, d)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog checks that BENCHMARK.json lists
// exactly the end-to-end and per-layer metrics the program emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[int]map[string]string{kindE2E: {}, kindLayer: {}}
	for _, m := range catalog {
		if m.kind != kindReport {
			want[m.kind][m.name] = m.unit
		}
	}
	compare := func(kind int, got []struct{ Name, Unit string }) {
		if len(got) != len(want[kind]) {
			t.Errorf("kind %d: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want[kind]))
		}
		for _, m := range got {
			if u, ok := want[kind][m.Name]; !ok || u != m.Unit {
				t.Errorf("kind %d: BENCHMARK.json metric %s (%s) not emitted with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	compare(kindE2E, spec.EndToEnd)
	compare(kindLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}
