package main

import (
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
)

// counters is a snapshot of the engine's public counter getters, summed
// over every database instance of a workload (one, or one per shard).
type counters struct {
	fixes, misses, evicts, writebacks int64
	relFixes, relMisses               [core.NumRelations]int64
	reads, writes                     int64
	locks, lockWaits, deadlocks       int64
	forces, commits, aborts           int64
	writeConflicts, ssiAborts         int64
}

// readCounters snapshots the counters of every instance. withRelations
// also reads the per-relation buffer counters, which allocate.
func readCounters(dbs []*db.DB, withRelations bool) counters {
	var c counters
	for _, d := range dbs {
		bs := d.BufferStats()
		c.fixes += bs.Accesses()
		c.misses += bs.Misses
		c.evicts += bs.Evicts
		c.writebacks += bs.Flushes
		ss := d.StoreStats()
		c.reads += ss.Reads
		c.writes += ss.Writes
		acq, waits, dl := d.LockCounts()
		c.locks += acq
		c.lockWaits += waits
		c.deadlocks += dl
		c.forces += d.LogForces()
		c.commits += d.Commits()
		c.aborts += d.Aborts()
		c.writeConflicts += d.WriteConflicts()
		c.ssiAborts += d.SSIAborts()
		if withRelations {
			for rel, s := range d.RelationStats() {
				if rel < core.NumRelations {
					c.relFixes[rel] += s.Accesses()
					c.relMisses[rel] += s.Misses
				}
			}
		}
	}
	return c
}

// sub returns c - o field by field.
func (c counters) sub(o counters) counters {
	d := counters{
		fixes: c.fixes - o.fixes, misses: c.misses - o.misses,
		evicts: c.evicts - o.evicts, writebacks: c.writebacks - o.writebacks,
		reads: c.reads - o.reads, writes: c.writes - o.writes,
		locks: c.locks - o.locks, lockWaits: c.lockWaits - o.lockWaits,
		deadlocks: c.deadlocks - o.deadlocks,
		forces:    c.forces - o.forces, commits: c.commits - o.commits, aborts: c.aborts - o.aborts,
		writeConflicts: c.writeConflicts - o.writeConflicts, ssiAborts: c.ssiAborts - o.ssiAborts,
	}
	for i := range d.relFixes {
		d.relFixes[i] = c.relFixes[i] - o.relFixes[i]
		d.relMisses[i] = c.relMisses[i] - o.relMisses[i]
	}
	return d
}

// layerRelations are the relations whose miss rates are reported per
// layer: the four that carry almost all buffer traffic.
var layerRelations = []core.Relation{core.Customer, core.Stock, core.Item, core.OrderLine}

// layerValues turns the counter deltas over txns acknowledged
// transactions into the engine's per-layer metrics.
func (d counters) layerValues(txns int64, v map[string]float64) {
	v["lock.acquires_per_txn"] = ratio(d.locks, txns)
	v["lock.waits_per_ktxn"] = perK(d.lockWaits, txns)
	v["lock.deadlocks_per_ktxn"] = perK(d.deadlocks, txns)
	v["bufmgr.fixes_per_txn"] = ratio(d.fixes, txns)
	v["bufmgr.miss_rate"] = ratio(d.misses, d.fixes)
	for _, rel := range layerRelations {
		v["bufmgr.miss_rate."+rel.String()] = ratio(d.relMisses[rel], d.relFixes[rel])
	}
	v["bufmgr.evicts_per_txn"] = ratio(d.evicts, txns)
	v["bufmgr.writebacks_per_txn"] = ratio(d.writebacks, txns)
	v["storage.reads_per_txn"] = ratio(d.reads, txns)
	v["storage.writes_per_txn"] = ratio(d.writes, txns)
	v["wal.forces_per_commit"] = ratio(d.forces, d.commits+d.aborts)
	v["mvcc.write_conflicts_per_ktxn"] = perK(d.writeConflicts, txns)
	v["mvcc.ssi_aborts_per_ktxn"] = perK(d.ssiAborts, txns)
}
