package main

import (
	"fmt"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// clusterWorkload drives a warehouse-sharded cluster through shard.Run,
// the cluster's only public entry point: the window is a sequence of
// shard.Run calls of batch transactions each, so there is one span per
// call and no per-transaction latency.
type clusterWorkload struct {
	cfg     shard.Config
	workers int
	// batch is transactions per shard.Run call; warmup and traced count
	// calls.
	batch, warmup, traced int

	c           *shard.Cluster
	loadedPages int64
	stock0, ol0 uint64
	passes      uint64
}

func newCluster(size string) *clusterWorkload {
	cfg := shard.DefaultConfig(3)
	cfg.CC = db.CCSSI
	cfg.GroupCommit = wal.DefaultGroupConfig()
	w := &clusterWorkload{cfg: cfg, workers: 1, batch: 1000, warmup: 2, traced: 5}
	if size == sizeTiny {
		w.batch, w.warmup, w.traced = 100, 1, 1
	}
	return w
}

func (w *clusterWorkload) meta() workloadMeta {
	return workloadMeta{Warehouses: w.cfg.Shards * w.cfg.WarehousesPerShard, LoadedPages: w.loadedPages,
		PoolPages: w.cfg.Shards * w.cfg.BufferPages, CC: w.cfg.CC.String(), Workers: w.workers, Procs: engineProcs,
		Notes: fmt.Sprintf("%d shards x %d warehouse, remote stock %.2f, remote payment %.2f",
			w.cfg.Shards, w.cfg.WarehousesPerShard, tpcc.RemoteStockProb, tpcc.RemotePaymentProb)}
}

func (w *clusterWorkload) dbs() []*db.DB {
	out := make([]*db.DB, 0, len(w.c.Shards()))
	for _, s := range w.c.Shards() {
		out = append(out, s.DB)
	}
	return out
}

// setup opens (loads and checkpoints) the cluster several times and keeps
// the last one.
func (w *clusterWorkload) setup(rc *runCtx) (float64, error) {
	w.cfg.Seed = rc.seed
	s, err := medianOf(rc, func() (time.Duration, error) {
		w.c = nil
		collectGarbage()
		start := time.Now()
		c, err := shard.Open(w.cfg)
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		w.c = c
		return elapsed, nil
	})
	if err != nil {
		return 0, err
	}
	w.loadedPages = 0
	for _, d := range w.dbs() {
		for _, rel := range core.Relations() {
			w.loadedPages += int64(len(d.Heap(rel).PageIDs()))
		}
	}
	if w.stock0, err = w.c.StockYTDTotal(); err != nil {
		return 0, err
	}
	if w.ol0, err = w.c.OrderLineQtyTotal(); err != nil {
		return 0, err
	}
	return s, nil
}

// run makes shard.Run calls until calls > 0 of them are done, or until
// dur has passed. It also returns each call's acknowledged transactions
// per second and process CPU milliseconds per acknowledged transaction. A
// call that fails (its failing transaction stops it) is counted in ph and
// the next call goes on.
func (w *clusterWorkload) run(rc *runCtx, ph *phase, tr *Tracer, calls int, dur time.Duration) (total shard.RunStats, elapsed time.Duration, rates, cpuMS []float64) {
	start := time.Now()
	for i := 0; calls > 0 && i < calls || calls <= 0 && time.Since(start) < dur; i++ {
		seed := rng.Substream(rc.seed, w.passes)
		w.passes++
		sp := tr.Begin("shard.Run", 0, int64(w.passes))
		cpu0 := cpuTime()
		st, err := shard.Run(w.c, seed, tpcc.DefaultMix(), w.batch, w.workers,
			db.DefaultRetryPolicy(), tpcc.RemoteStockProb, tpcc.RemotePaymentProb)
		cpu := cpuTime() - cpu0
		tr.End(sp)
		if n := st.Acknowledged(); n > 0 {
			rates = append(rates, float64(n)/st.Elapsed.Seconds())
			cpuMS = append(cpuMS, cpu.Seconds()*1e3/float64(n))
		}
		for t := range total.Counts {
			total.Counts[t] += st.Counts[t]
		}
		total.Retries += st.Retries
		total.Sheds += st.Sheds
		if err != nil {
			ph.opFailed(err)
		}
	}
	return total, time.Since(start), rates, cpuMS
}

func (w *clusterWorkload) shardStats() shard.Stats {
	var sum shard.Stats
	for _, s := range w.c.Shards() {
		st := s.Stats()
		sum.LocalCommits += st.LocalCommits
		sum.DistCommits += st.DistCommits
		sum.DistAborts += st.DistAborts
	}
	return sum
}

func (w *clusterWorkload) measure(rc *runCtx, tr *Tracer) (*phase, error) {
	ph := &phase{values: map[string]float64{}}
	w.run(rc, ph, nil, w.warmup, 0)
	ph.values["heap_mb"] = heapMiB()
	dbs := w.dbs()
	c0 := readCounters(dbs, true)
	s0 := w.shardStats()
	var st shard.RunStats
	var elapsed time.Duration
	if tr == nil {
		var rates, cpuMS []float64
		st, elapsed, rates, cpuMS = w.run(rc, ph, nil, 0, rc.seconds)
		ph.values["ops_per_s"] = median(rates)
		ph.values["cpu_ms_per_op"] = median(cpuMS)
	} else {
		st, elapsed, _, _ = w.run(rc, ph, tr, w.traced, 0)
	}
	delta := readCounters(dbs, true).sub(c0)
	s1 := w.shardStats()
	acked := st.Acknowledged()
	ph.elapsed = elapsed
	ph.ops = acked
	ph.attempted += acked + st.Sheds
	ph.failed += st.Sheds
	v := ph.values
	v["tpmC"] = float64(st.Counts[core.TxnNewOrder]) / elapsed.Minutes()
	delta.layerValues(acked, v)
	chains := 0
	for _, d := range dbs {
		chains += d.VersionChains()
	}
	v["mvcc.version_chains"] = float64(chains)
	local, dist := s1.LocalCommits-s0.LocalCommits, s1.DistCommits-s0.DistCommits
	v["shard.dist_frac"] = ratio(dist, local+dist)
	v["shard.dist_aborts_per_ktxn"] = perK(s1.DistAborts-s0.DistAborts, acked)
	v["shard.retries_per_ktxn"] = perK(st.Retries, acked)
	return ph, nil
}

// finish settles parked participant commits, then checks every shard
// (C1-C4) and the cluster-wide invariant that stock YTD grew by exactly
// the quantity of the order lines written.
func (w *clusterWorkload) finish(rc *runCtx, ph *phase, tr *Tracer) error {
	check := func(name string, err error) {
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.checks = append(ph.checks, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if n := w.c.Quiesce(time.Second); n > 0 {
		check("quiesce", fmt.Errorf("%d participant commits still pending", n))
	}
	sp := tr.Begin("shard.CheckAll", 0, 0)
	t0 := time.Now()
	err := w.c.CheckAll()
	stock, err2 := w.c.StockYTDTotal()
	ol, err3 := w.c.OrderLineQtyTotal()
	ph.values["check_s"] = time.Since(t0).Seconds()
	tr.End(sp)
	check("consistency C1-C4", err)
	if err2 != nil || err3 != nil {
		return fmt.Errorf("totals: %v %v", err2, err3)
	}
	if stock-w.stock0 != ol-w.ol0 {
		check("stock ytd vs order-line qty", fmt.Errorf("stock YTD grew %d, order-line quantity %d",
			stock-w.stock0, ol-w.ol0))
	} else {
		check("stock ytd vs order-line qty", nil)
	}
	return nil
}
