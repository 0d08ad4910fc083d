package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/model"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// engineProcs is the GOMAXPROCS the engine and cluster workloads run
// with. On one P the workers, the garbage collector and the runtime share
// one core, so the process CPU time per transaction counts their work and
// not the runtime's search for work on an idle second core, whose share
// followed the other load on the host: with one busy process beside it,
// two-worker resident on two Ps used 0.10–0.13 ms of CPU per transaction
// instead of 0.17–0.18 ms, and on one P about 0.10 ms either way. Two
// workers still interleave on one P, so locks wait and commits batch.
const engineProcs = 1

// engineWorkload drives one single-node db.DB with closed-loop workers,
// each a db.Runner that waits for every RunOne call to return before
// issuing the next.
type engineWorkload struct {
	cfg     db.Config
	workers int
	// warmup and traced are transactions per worker: the untimed warm-up
	// before every pass, and the fixed-count traced segment (a fixed count
	// makes the 1-worker counter deltas repeat exactly).
	warmup, traced int
	// minPoolFactor, when set, requires the pool to hold that many times
	// the loaded pages, so the workload stays memory resident.
	minPoolFactor int
	// crash ends the run with a power loss, recovery and post-recovery
	// checks.
	crash bool

	d           *db.DB
	loadedPages int64
	passes      uint64
}

func newResident(size string) *engineWorkload {
	w := &engineWorkload{
		cfg:     db.Config{Warehouses: 1, PageSize: 4096, BufferPages: 40_000, CC: db.CC2PL},
		workers: 2, warmup: 1500, traced: 4000, minPoolFactor: 2,
	}
	if size == sizeTiny {
		w.warmup, w.traced = 50, 100
	}
	return w
}

func newPaging(size string) *engineWorkload {
	w := &engineWorkload{
		cfg:     db.Config{Warehouses: 4, PageSize: 4096, BufferPages: 16_384, CC: db.CC2PL},
		workers: 1, warmup: 3000, traced: 6000, crash: true,
	}
	if size == sizeTiny {
		w.cfg.Warehouses, w.cfg.BufferPages = 1, 2048
		w.warmup, w.traced = 50, 100
	}
	return w
}

func (e *engineWorkload) meta() workloadMeta {
	return workloadMeta{Warehouses: e.cfg.Warehouses, LoadedPages: e.loadedPages,
		PoolPages: e.cfg.BufferPages, CC: e.cfg.CC.String(), Workers: e.workers, Procs: engineProcs}
}

// setup opens, loads and verifies the database several times from the
// same seed and keeps the last instance.
func (e *engineWorkload) setup(rc *runCtx) (float64, error) {
	return medianOf(rc, func() (time.Duration, error) {
		e.d = nil
		collectGarbage()
		start := time.Now()
		d, err := db.OpenWith(e.cfg, db.Options{GroupCommit: wal.DefaultGroupConfig()})
		if err != nil {
			return 0, err
		}
		if err := d.Load(rc.seed); err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
		if err := d.VerifyCounts(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		e.d = d
		e.loadedPages = 0
		for _, rel := range core.Relations() {
			e.loadedPages += int64(len(d.Heap(rel).PageIDs()))
		}
		if f := e.minPoolFactor; f > 0 && int64(e.cfg.BufferPages) < int64(f)*e.loadedPages {
			return 0, fmt.Errorf("pool of %d pages is below %dx the %d loaded pages",
				e.cfg.BufferPages, f, e.loadedPages)
		}
		return elapsed, nil
	})
}

// newRunners returns one runner per worker on a fresh substream of the
// seed; every pass gets its own streams.
func (e *engineWorkload) newRunners(seed uint64) []*db.Runner {
	rns := make([]*db.Runner, e.workers)
	for i := range rns {
		rns[i] = db.NewRunner(e.d, rng.Substream(seed, e.passes*64+uint64(i)), tpcc.DefaultMix())
	}
	e.passes++
	return rns
}

// drive result of one batch of RunOne calls across the workers.
type driveResult struct {
	elapsed   time.Duration
	attempted int64
	errs      []error
	byType    [core.NumTxnTypes][]int64 // per-call nanoseconds
	ends      []int64                   // completion times of acknowledged calls, ns from start
	table4    *[core.NumTxnTypes]table4Acc
}

// table4Acc sums the counter deltas read around each RunOne of one type.
type table4Acc struct {
	n                                       int64
	fixes, reads, writebacks, locks, forces int64
}

// drive runs the workers until each has made count calls (count > 0) or
// until dur has passed. Every RunOne call is timed; with a tracer each
// call is a span, and on one worker the counters are read around it.
// Each acknowledged call adds one to acked when it is not nil.
func (e *engineWorkload) drive(rns []*db.Runner, tr *Tracer, count int, dur time.Duration, acked *atomic.Int64) driveResult {
	var res driveResult
	perCall := tr != nil && len(rns) == 1
	if perCall {
		res.table4 = new([core.NumTxnTypes]table4Acc)
	}
	dbs := []*db.DB{e.d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for wi, rn := range rns {
		wg.Add(1)
		go func(wi int, rn *db.Runner) {
			defer wg.Done()
			var lat [core.NumTxnTypes][]int64
			var ends []int64
			var n int64
			var err error
			for i := 0; ; i++ {
				if count > 0 && i >= count || count <= 0 && !time.Now().Before(deadline) {
					break
				}
				var c0 counters
				if perCall {
					c0 = readCounters(dbs, false)
				}
				sheds := rn.Sheds()
				sp := tr.Begin("db.RunOne", 0, int64(wi)<<40|int64(i))
				t0 := time.Now()
				var typ core.TxnType
				typ, err = rn.RunOne()
				t1 := time.Now()
				tr.EndAs(sp, runOneSpan[typ])
				n++
				if err != nil {
					break
				}
				if rn.Sheds() != sheds {
					continue // shed: returned without error but not acknowledged
				}
				if acked != nil {
					acked.Add(1)
				}
				lat[typ] = append(lat[typ], t1.Sub(t0).Nanoseconds())
				ends = append(ends, t1.Sub(start).Nanoseconds())
				if perCall {
					d := readCounters(dbs, false).sub(c0)
					a := &res.table4[typ]
					a.n++
					a.fixes += d.fixes
					a.reads += d.reads
					a.writebacks += d.writebacks
					a.locks += d.locks
					a.forces += d.forces
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.attempted += n
			if err != nil {
				res.errs = append(res.errs, err)
			}
			for t := range lat {
				res.byType[t] = append(res.byType[t], lat[t]...)
			}
			res.ends = append(res.ends, ends...)
		}(wi, rn)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runOneSpan names the span of a RunOne call by the type it ran.
var runOneSpan = func() (out [core.NumTxnTypes]string) {
	for t := range out {
		out[t] = "db.RunOne." + typeName(core.TxnType(t))
	}
	return out
}()

// typeName is the transaction type's name without the dash
// ("new-order" -> "neworder").
func typeName(t core.TxnType) string { return strings.ReplaceAll(t.String(), "-", "") }

// measure runs one pass: a fixed warm-up, then either the timed window
// (untraced) or the fixed-count traced segment.
func (e *engineWorkload) measure(rc *runCtx, tr *Tracer) (*phase, error) {
	rns := e.newRunners(rc.seed)
	ph := &phase{values: map[string]float64{}}
	for _, err := range e.drive(rns, nil, e.warmup, 0, nil).errs {
		ph.opFailed(err)
	}
	ph.values["heap_mb"] = heapMiB()
	dbs := []*db.DB{e.d}
	acked0, sheds0, retries0 := runnerTotals(rns)
	c0 := readCounters(dbs, true)
	var res driveResult
	if tr == nil {
		s := startCPUSampler(rc.seconds / cpuSlices)
		res = e.drive(rns, nil, 0, rc.seconds, &s.ops)
		ph.values["cpu_ms_per_op"] = s.finish()
	} else {
		res = e.drive(rns, tr, e.traced, 0, nil)
	}
	delta := readCounters(dbs, true).sub(c0)
	acked1, sheds1, retries1 := runnerTotals(rns)
	sheds := sheds1 - sheds0
	var acked [core.NumTxnTypes]int64
	for t := range acked {
		acked[t] = acked1[t] - acked0[t]
	}

	ph.elapsed = res.elapsed
	ph.attempted += res.attempted - int64(len(res.errs))
	ph.failed += sheds
	for _, err := range res.errs {
		ph.opFailed(err)
	}
	ph.ops = acked[core.TxnNewOrder] + acked[core.TxnPayment] + acked[core.TxnOrderStatus] +
		acked[core.TxnDelivery] + acked[core.TxnStockLevel]
	v := ph.values
	v["tpmC"] = float64(acked[core.TxnNewOrder]) / res.elapsed.Minutes()
	if tr == nil {
		v["ops_per_s"] = sliceRate(res.ends, rc.seconds, windowSlices)
	}
	var all []int64
	busy := float64(len(rns)) * res.elapsed.Seconds()
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		all = append(all, res.byType[t]...)
		var sum int64
		for _, ns := range res.byType[t] {
			sum += ns
		}
		v["db."+typeName(t)+"_p50_us"] = median(micros(res.byType[t]))
		v["db."+typeName(t)+"_busy_frac"] = float64(sum) / 1e9 / busy
	}
	us := micros(all)
	v["txn_p50_us"] = quantile(us, 0.50)
	v["txn_p99_us"] = quantile(us, 0.99)
	v["txn_samples"] = float64(len(us))
	v["stocklevel_p50_us"] = v["db.stocklevel_p50_us"]
	v["db.retries_per_ktxn"] = perK(retries1-retries0, ph.ops)
	delta.layerValues(ph.ops, v)
	v["mvcc.version_chains"] = float64(e.d.VersionChains())
	if res.table4 != nil {
		ph.notes = append(ph.notes, table4Values(res.table4, v)...)
	}
	return ph, nil
}

func runnerTotals(rns []*db.Runner) (acked [core.NumTxnTypes]int64, sheds, retries int64) {
	for _, rn := range rns {
		c := rn.Counts()
		for i := range acked {
			acked[i] += c[i]
		}
		sheds += rn.Sheds()
		retries += rn.Retries()
	}
	return acked, sheds, retries
}

// table4Values sets the measured per-type means and returns report lines
// that print them beside internal/model's Table 4 visit counts (calls =
// selects + updates + inserts + deletes; locks). No gate: the engine's
// buffer fixes and lock acquires are not the paper's SQL calls one for
// one.
func table4Values(acc *[core.NumTxnTypes]table4Acc, v map[string]float64) []string {
	static := model.StaticCallCounts()
	lines := []string{fmt.Sprintf("%-13s %8s %8s %8s %8s %8s | %8s %8s",
		"table4", "fixes", "reads", "wbacks", "locks", "forces", "m.calls", "m.locks")}
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		a := acc[t]
		p := "table4." + typeName(t) + "."
		v[p+"fixes"] = ratio(a.fixes, a.n)
		v[p+"reads"] = ratio(a.reads, a.n)
		v[p+"writebacks"] = ratio(a.writebacks, a.n)
		v[p+"locks"] = ratio(a.locks, a.n)
		v[p+"forces"] = ratio(a.forces, a.n)
		c := static[t]
		lines = append(lines, fmt.Sprintf("%-13s %8.2f %8.3f %8.3f %8.2f %8.3f | %8.1f %8.1f",
			t, v[p+"fixes"], v[p+"reads"], v[p+"writebacks"], v[p+"locks"], v[p+"forces"],
			c.Selects+c.Updates+c.Inserts+c.Deletes, c.Locks))
	}
	return lines
}

// finish checks the database after the last pass. The paging workload
// first crashes it (power loss), recovers, checks that no order was lost,
// and runs a short post-recovery pass that must still commit.
func (e *engineWorkload) finish(rc *runCtx, ph *phase, tr *Tracer) error {
	check := func(name string, err error) {
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.checks = append(ph.checks, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if e.crash {
		orders := e.d.Heap(core.Order).Live()
		sp := tr.Begin("db.CrashPowerLoss", 0, 0)
		err := e.d.CrashPowerLoss(rng.New(rc.seed ^ 0x9e3779b97f4a7c15))
		tr.End(sp)
		if err != nil {
			return fmt.Errorf("crash: %w", err)
		}
		sp = tr.Begin("db.Recover", 0, 0)
		t0 := time.Now()
		err = e.d.Recover()
		recoverS := time.Since(t0).Seconds()
		tr.End(sp)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		ph.values["recover_s"] = recoverS
		ph.values["wal.recover_rows"] = float64(e.d.RecoveryStats().Applied)
		if tr != nil {
			// Recover rebuilds the indexes last; a second, separate
			// rebuild from outside splits its time from the WAL replay.
			sp = tr.Begin("db.RebuildIndexes", 0, 0)
			t0 = time.Now()
			err = e.d.RebuildIndexes()
			rebuildS := time.Since(t0).Seconds()
			tr.End(sp)
			if err != nil {
				return fmt.Errorf("rebuild indexes: %w", err)
			}
			ph.values["index.rebuild_frac"] = rebuildS / recoverS
			ph.values["wal.replay_frac"] = max(recoverS-rebuildS, 0) / recoverS
		}
		if got := e.d.Heap(core.Order).Live(); got != orders {
			check("orders across crash", fmt.Errorf("%d orders after recovery, %d before", got, orders))
		} else {
			check("orders across crash", nil)
		}
	}
	sp := tr.Begin("db.CheckConsistency", 0, 0)
	t0 := time.Now()
	err := e.d.CheckConsistency()
	ph.values["check_s"] = time.Since(t0).Seconds()
	tr.End(sp)
	check("consistency C1-C4", err)
	if e.crash {
		rns := e.newRunners(rc.seed)
		res := e.drive(rns, nil, 200, 0, nil)
		acked, _, _ := runnerTotals(rns)
		var err error
		if len(res.errs) > 0 {
			err = errors.Join(res.errs...)
		} else if acked[core.TxnNewOrder] == 0 {
			err = errors.New("no New-Order committed")
		}
		check("post-recovery run", err)
		check("post-recovery consistency", e.d.CheckConsistency())
	}
	return nil
}
