// Package xval cross-validates the storage engine against the modeling
// pipeline: the same TPC-C workload is (a) executed by the real engine
// (internal/engine/db) with its buffer manager's reference stream tapped,
// (b) replayed through the trace-driven LRU stack-distance simulation
// (internal/buffer), and (c) predicted in closed form by Che's IRM
// approximation (internal/analytic).
//
// The three layers are held to different standards:
//
//   - engine vs replay: EXACT. The engine's LRU buffer manager and the
//     stack-distance simulation implement the same policy over the same
//     reference stream, so hit/miss counts must be bit-identical at the
//     engine's buffer size. Any divergence is a bug in one of them, and
//     Replay reports the first diverging access.
//   - replay vs synthetic simulation: TOLERANCE. The synthetic stream
//     (internal/workload + sequential packing) models the engine's access
//     pattern — same NURand distributions, same key-order loading — but
//     not its physical details (slot bitmaps, insert probing, B-tree
//     residency), so the per-relation miss-rate curves agree only within
//     a few percent. Gated for the static skewed relations the model
//     targets (customer, stock, item).
//   - simulation vs analytic: TOLERANCE. Che's approximation under the
//     IRM is exact only in the large-cache limit; the comparison bound
//     quantifies how far the closed form drifts from the simulated truth.
//
// See EXPERIMENTS.md ("Cross-validating the engine against the model")
// for the tolerance rationale and a sample report.
package xval

import (
	"fmt"

	"tpccmodel/internal/buffer"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/experiments"
	"tpccmodel/internal/sim"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

// Stream records a buffer manager's reference stream as parallel arrays:
// one entry per tap callback, in LRU decision order. The recorder is not
// safe for concurrent use — the cross-validation harness drives the engine
// single-threaded, which is also what makes the engine's pin order equal
// its LRU update order (see bufmgr.Tap).
type Stream struct {
	pages []uint64
	rels  []uint8
	flags []uint8
	mark  int
}

const (
	// flagAlloc marks a page allocation: the page becomes resident at the
	// MRU position without counting as an access.
	flagAlloc = 1 << 0
	// flagHit records the engine's own hit/miss verdict for the access.
	flagHit = 1 << 1
)

// Tap returns the bufmgr.Tap that appends to the stream. Install it via
// db.SetBufferTap before Load so the stream covers the whole pool history.
func (s *Stream) Tap() bufmgr.Tap {
	return func(id storage.PageID, cls int, alloc, hit bool) {
		var f uint8
		if alloc {
			f |= flagAlloc
		}
		if hit {
			f |= flagHit
		}
		s.pages = append(s.pages, uint64(id))
		s.rels = append(s.rels, uint8(cls))
		s.flags = append(s.flags, f)
	}
}

// Mark starts the measurement window: events recorded before Mark warm the
// replayed LRU stack but are not counted. Call it together with the
// engine's ResetBufferStats so both sides measure the same window.
func (s *Stream) Mark() { s.mark = len(s.pages) }

// Len returns the number of recorded events (accesses plus allocations).
func (s *Stream) Len() int { return len(s.pages) }

// MeasuredAccesses returns the number of counted accesses: non-allocation
// events at or after the mark.
func (s *Stream) MeasuredAccesses() int64 {
	var n int64
	for i := s.mark; i < len(s.flags); i++ {
		if s.flags[i]&flagAlloc == 0 {
			n++
		}
	}
	return n
}

// universe returns one past the largest page id in the stream.
func (s *Stream) universe() int64 {
	var max uint64
	for _, p := range s.pages {
		if p > max {
			max = p
		}
	}
	if len(s.pages) == 0 {
		return 0
	}
	return int64(max) + 1
}

// Counts is a hit/miss pair.
type Counts struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// MissRate returns Misses/(Hits+Misses), or 0 when empty.
func (c Counts) MissRate() float64 {
	if n := c.Hits + c.Misses; n > 0 {
		return float64(c.Misses) / float64(n)
	}
	return 0
}

// Divergence identifies the first access where the engine's recorded
// hit/miss verdict disagrees with the replayed LRU simulation — the
// minimal stream prefix exhibiting the disagreement, since every earlier
// access agreed.
type Divergence struct {
	// Index is the event's position in the recorded stream.
	Index int `json:"index"`
	// Rel is the relation the access was accounted to.
	Rel string `json:"relation"`
	// Page is the page id accessed.
	Page uint64 `json:"page"`
	// EngineHit is the engine's verdict; ReplayHit the simulation's.
	EngineHit bool `json:"engine_hit"`
	ReplayHit bool `json:"replay_hit"`
	// Distance is the replayed LRU stack distance of the access
	// (buffer.ColdDistance for a first reference).
	Distance int64 `json:"stack_distance"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("access %d (%s page %d): engine hit=%v, replay hit=%v (stack distance %d)",
		d.Index, d.Rel, d.Page, d.EngineHit, d.ReplayHit, d.Distance)
}

// ReplayResult is the outcome of replaying a stream at one capacity.
type ReplayResult struct {
	// PerRel counts measured (post-mark) accesses per relation.
	PerRel [core.NumRelations]Counts
	// Total sums PerRel.
	Total Counts
	// Divergences counts accesses (over the WHOLE stream, warmup
	// included) whose replayed verdict contradicts the engine's; First
	// is the earliest of them, nil when the replay matches everywhere.
	Divergences int
	First       *Divergence
}

// Replay runs the recorded stream through the dense LRU stack-distance
// simulation at the given capacity: an access hits iff its stack distance
// is at most the capacity (LRU's inclusion property), and allocations
// touch the stack without being counted — exactly the engine's Allocate
// semantics. It returns per-relation measured counts plus the first
// divergence from the engine's recorded verdicts, if any.
func (s *Stream) Replay(capacityPages int64) ReplayResult {
	var res ReplayResult
	dense := buffer.NewDenseStackSim(s.universe())
	for i, p := range s.pages {
		d := dense.Access(int64(p))
		if s.flags[i]&flagAlloc != 0 {
			continue
		}
		hit := d != buffer.ColdDistance && d <= capacityPages
		engineHit := s.flags[i]&flagHit != 0
		if hit != engineHit {
			res.Divergences++
			if res.First == nil {
				res.First = &Divergence{
					Index:     i,
					Rel:       core.Relation(s.rels[i]).String(),
					Page:      p,
					EngineHit: engineHit,
					ReplayHit: hit,
					Distance:  d,
				}
			}
		}
		if i < s.mark {
			continue
		}
		rel := s.rels[i]
		if hit {
			res.PerRel[rel].Hits++
			res.Total.Hits++
		} else {
			res.PerRel[rel].Misses++
			res.Total.Misses++
		}
	}
	return res
}

// Curves replays the stream once and returns the full miss-rate-vs-
// capacity curve of every relation (plus the overall curve), counting only
// measured accesses. The reference stream is policy-independent — which
// pages a transaction touches does not depend on what the buffer evicted —
// so one engine run at one buffer size yields the engine's exact miss
// curve at EVERY buffer size, comparable point by point against the
// synthetic simulation's curves. All curves are finalized.
func (s *Stream) Curves() (perRel [core.NumRelations]*buffer.MissCurve, overall *buffer.MissCurve) {
	for rel := range perRel {
		perRel[rel] = &buffer.MissCurve{}
	}
	overall = &buffer.MissCurve{}
	dense := buffer.NewDenseStackSim(s.universe())
	for i, p := range s.pages {
		d := dense.Access(int64(p))
		if s.flags[i]&flagAlloc != 0 || i < s.mark {
			continue
		}
		perRel[s.rels[i]].Add(d)
	}
	for rel := range perRel {
		perRel[rel].Finalize()
		overall.Merge(perRel[rel])
	}
	overall.Finalize()
	return perRel, overall
}

// Config parameterizes a cross-validation run.
type Config struct {
	// Warehouses, PageSize, BufferPages size the engine instance.
	Warehouses  int `json:"warehouses"`
	PageSize    int `json:"page_size"`
	BufferPages int `json:"buffer_pages"`
	// WarmupTxns transactions run before the measurement window opens;
	// MeasureTxns are measured.
	WarmupTxns  int `json:"warmup_txns"`
	MeasureTxns int `json:"measure_txns"`
	// Seed drives the engine load and both transaction streams.
	Seed uint64 `json:"seed"`
	// CapacitiesPages are the buffer sizes (pages) of the three-way
	// curve comparison; the engine's own BufferPages need not be among
	// them (the exact gate runs there regardless).
	CapacitiesPages []int64 `json:"capacities_pages"`
	// SimWarmupTxns, SimBatches, SimBatchTxns configure the synthetic
	// stack-distance simulation.
	SimWarmupTxns int64 `json:"sim_warmup_txns"`
	SimBatches    int   `json:"sim_batches"`
	SimBatchTxns  int64 `json:"sim_batch_txns"`
	// TolReplaySim bounds |engine replay − synthetic sim| per relation
	// and capacity; TolAnalytic bounds |synthetic sim − Che closed form|.
	TolReplaySim float64 `json:"tol_replay_sim"`
	TolAnalytic  float64 `json:"tol_analytic"`
}

// DefaultConfig returns a laptop-fast configuration (seconds).
func DefaultConfig() Config {
	return Config{
		Warehouses:      1,
		PageSize:        4096,
		BufferPages:     2048,
		WarmupTxns:      2_000,
		MeasureTxns:     8_000,
		Seed:            1993,
		CapacitiesPages: []int64{256, 512, 1024, 2048, 4096, 8192},
		SimWarmupTxns:   2_000,
		SimBatches:      3,
		SimBatchTxns:    4_000,
		// Measured worst-case deltas at this scale are ~0.10 (engine vs
		// sim, customer at small buffers: the engine's per-call repeat
		// pattern differs slightly from the modeled stream) and ~0.12
		// (sim vs Che, stock near the knee where the IRM approximation
		// is weakest). The gates sit just above those maxima so they
		// trip on regressions, not on the known modeling error. See
		// EXPERIMENTS.md for the full rationale.
		TolReplaySim: 0.12,
		TolAnalytic:  0.15,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Warehouses <= 0 {
		return fmt.Errorf("xval: warehouses must be positive")
	}
	if c.BufferPages <= 0 {
		return fmt.Errorf("xval: buffer pages must be positive")
	}
	if c.WarmupTxns < 0 || c.MeasureTxns <= 0 {
		return fmt.Errorf("xval: need a positive measurement window")
	}
	if len(c.CapacitiesPages) == 0 {
		return fmt.Errorf("xval: need at least one comparison capacity")
	}
	for _, cap := range c.CapacitiesPages {
		if cap <= 0 {
			return fmt.Errorf("xval: capacities must be positive, got %d", cap)
		}
	}
	if c.SimBatches < 2 || c.SimBatchTxns <= 0 || c.SimWarmupTxns < 0 {
		return fmt.Errorf("xval: need >= 2 simulation batches of positive size")
	}
	if c.TolReplaySim <= 0 || c.TolAnalytic <= 0 {
		return fmt.Errorf("xval: tolerances must be positive")
	}
	return nil
}

// ExactRow compares the engine's measured per-relation counters against
// the replayed simulation at the engine's buffer size.
type ExactRow struct {
	Relation     string `json:"relation"`
	EngineHits   int64  `json:"engine_hits"`
	EngineMisses int64  `json:"engine_misses"`
	ReplayHits   int64  `json:"replay_hits"`
	ReplayMisses int64  `json:"replay_misses"`
	Match        bool   `json:"match"`
}

// Row is one three-way comparison cell: a modeled relation at a capacity.
type Row struct {
	Relation      string `json:"relation"`
	CapacityPages int64  `json:"capacity_pages"`
	// EngineMiss is the replayed engine-stream miss rate (bit-identical
	// to what the engine would measure at this capacity), SimMiss the
	// synthetic trace-driven rate, AnalyticMiss the per-call-adjusted
	// Che/IRM closed form.
	EngineMiss    float64 `json:"engine_miss"`
	SimMiss       float64 `json:"sim_miss"`
	AnalyticMiss  float64 `json:"analytic_miss"`
	DeltaEngSim   float64 `json:"delta_engine_sim"`
	DeltaSimAna   float64 `json:"delta_sim_analytic"`
	EngSimOK      bool    `json:"engine_sim_ok"`
	SimAnalyticOK bool    `json:"sim_analytic_ok"`
}

// Result is the full cross-validation outcome.
type Result struct {
	Config Config `json:"config"`
	// MeasuredAccesses counts the engine accesses in the window.
	MeasuredAccesses int64 `json:"measured_accesses"`
	// Exact holds the engine-vs-replay comparison at BufferPages, one
	// row per relation the engine touched.
	Exact      []ExactRow  `json:"exact"`
	ExactMatch bool        `json:"exact_match"`
	Divergence *Divergence `json:"divergence,omitempty"`
	// Rows holds the three-way tolerance comparison for the modeled
	// relations (customer, stock, item) at every comparison capacity.
	Rows          []Row `json:"rows"`
	EngSimOK      bool  `json:"engine_sim_ok"`
	SimAnalyticOK bool  `json:"sim_analytic_ok"`
}

// OK reports whether every gate passed.
func (r *Result) OK() bool { return r.ExactMatch && r.EngSimOK && r.SimAnalyticOK }

// Err returns a descriptive error when a gate failed, nil otherwise.
func (r *Result) Err() error {
	if r.ExactMatch && r.EngSimOK && r.SimAnalyticOK {
		return nil
	}
	if !r.ExactMatch {
		if r.Divergence != nil {
			return fmt.Errorf("xval: engine and replay disagree: first divergence at %s", r.Divergence)
		}
		return fmt.Errorf("xval: engine and replay counters disagree")
	}
	for _, row := range r.Rows {
		if !row.EngSimOK {
			return fmt.Errorf("xval: %s at %d pages: engine %.4f vs sim %.4f exceeds tolerance %.3f",
				row.Relation, row.CapacityPages, row.EngineMiss, row.SimMiss, r.Config.TolReplaySim)
		}
		if !row.SimAnalyticOK {
			return fmt.Errorf("xval: %s at %d pages: sim %.4f vs analytic %.4f exceeds tolerance %.3f",
				row.Relation, row.CapacityPages, row.SimMiss, row.AnalyticMiss, r.Config.TolAnalytic)
		}
	}
	return fmt.Errorf("xval: agreement gate failed")
}

// modeledRelations are the static skewed relations the analytic model and
// the tolerance gates cover, in analytic class order.
var modeledRelations = []core.Relation{core.Customer, core.Stock, core.Item}

// Run executes the full cross-validation: engine run with tapped buffer
// manager, exact replay gate, and the three-way tolerance comparison.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Engine run, single-threaded: load, warm up, then measure with the
	// buffer counters and the stream mark aligned. BufferPartitions is
	// pinned at 1: the Tap reference stream is totally ordered only within
	// a partition, and Replay's LRU bit-identity claim needs the global
	// order — the unified pool is the gated configuration.
	d, err := db.Open(db.Config{
		Warehouses:       cfg.Warehouses,
		PageSize:         cfg.PageSize,
		BufferPages:      cfg.BufferPages,
		BufferPartitions: 1,
	})
	if err != nil {
		return nil, err
	}
	var stream Stream
	d.SetBufferTap(stream.Tap())
	if err := d.Load(cfg.Seed); err != nil {
		return nil, err
	}
	runner := db.NewRunner(d, cfg.Seed+1, tpcc.DefaultMix())
	if err := runner.Run(cfg.WarmupTxns); err != nil {
		return nil, err
	}
	stream.Mark()
	d.ResetBufferStats()
	if err := runner.Run(cfg.MeasureTxns); err != nil {
		return nil, err
	}
	d.SetBufferTap(nil)

	res := &Result{Config: cfg, MeasuredAccesses: stream.MeasuredAccesses()}

	// Gate 1: exact. Same policy, same stream, same capacity — the
	// engine's counters and the replayed stack simulation must agree
	// bit for bit, per relation.
	rep := stream.Replay(int64(cfg.BufferPages))
	engine := d.RelationStats()
	res.ExactMatch = rep.First == nil
	res.Divergence = rep.First
	for _, rel := range core.Relations() {
		es, rs := engine[rel], rep.PerRel[rel]
		if es.Accesses() == 0 && rs.Hits+rs.Misses == 0 {
			continue
		}
		match := es.Hits == rs.Hits && es.Misses == rs.Misses
		if !match {
			res.ExactMatch = false
		}
		res.Exact = append(res.Exact, ExactRow{
			Relation:     rel.String(),
			EngineHits:   es.Hits,
			EngineMisses: es.Misses,
			ReplayHits:   rs.Hits,
			ReplayMisses: rs.Misses,
			Match:        match,
		})
	}

	// Gate 2 and 3: the engine's replayed curves vs the synthetic
	// trace-driven curves vs the analytic closed form.
	engineCurves, _ := stream.Curves()
	wl := workload.DefaultConfig(cfg.Warehouses, cfg.Seed)
	wl.DB.PageSize = cfg.PageSize
	simRes, err := sim.RunCurve(sim.CurveConfig{
		Workload:        wl,
		Packing:         sim.PackSequential,
		CapacitiesPages: cfg.CapacitiesPages,
		WarmupTxns:      cfg.SimWarmupTxns,
		Batches:         cfg.SimBatches,
		BatchTxns:       cfg.SimBatchTxns,
		Level:           0.90,
	})
	if err != nil {
		return nil, err
	}
	opts := experiments.Options{
		Warehouses: cfg.Warehouses,
		Seed:       cfg.Seed,
		PageSize:   cfg.PageSize,
	}
	model, uniqueRatio, err := experiments.AnalyticModel(opts, simRes)
	if err != nil {
		return nil, err
	}

	res.EngSimOK, res.SimAnalyticOK = true, true
	for _, capPages := range cfg.CapacitiesPages {
		che := model.MissRates(capPages)
		for ci, rel := range modeledRelations {
			row := Row{
				Relation:      rel.String(),
				CapacityPages: capPages,
				EngineMiss:    engineCurves[rel].MissRate(capPages),
				SimMiss:       simRes.MissRate(rel, capPages),
				AnalyticMiss:  che[ci] * uniqueRatio[rel],
			}
			row.DeltaEngSim = abs(row.EngineMiss - row.SimMiss)
			row.DeltaSimAna = abs(row.SimMiss - row.AnalyticMiss)
			row.EngSimOK = row.DeltaEngSim <= cfg.TolReplaySim
			row.SimAnalyticOK = row.DeltaSimAna <= cfg.TolAnalytic
			if !row.EngSimOK {
				res.EngSimOK = false
			}
			if !row.SimAnalyticOK {
				res.SimAnalyticOK = false
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
