// Command tpcc-xval cross-validates the storage engine against the
// modeling pipeline: it runs the TPC-C mix on the real engine with the
// buffer manager's reference stream tapped, replays that stream through
// the LRU stack-distance simulation (the hit/miss counts must match the
// engine bit for bit), and compares both against the synthetic
// trace-driven curves and Che's analytic closed form within documented
// tolerances, writing a three-way agreement report as TSV and JSON.
//
// Usage:
//
//	tpcc-xval
//	tpcc-xval -warehouses 2 -buffer-pages 4096 -txns 20000 -out results
//	tpcc-xval -capacities 512,1024,2048,8192 -tol 0.1 -tol-analytic 0.15
//
// The process exits 1 when any agreement gate fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/xval"
)

func main() {
	def := xval.DefaultConfig()
	var (
		wh       = flag.Int("warehouses", def.Warehouses, "warehouse count")
		pages    = flag.Int("buffer-pages", def.BufferPages, "engine buffer pool capacity in pages")
		pageSize = flag.Int("page-size", def.PageSize, "page size in bytes")
		warmup   = flag.Int("warmup", def.WarmupTxns, "engine warmup transactions before measurement")
		txns     = flag.Int("txns", def.MeasureTxns, "engine transactions measured")
		seed     = flag.Uint64("seed", def.Seed, "random seed (load + both streams)")
		capsFlag = flag.String("capacities", capsDefault(def.CapacitiesPages),
			"comma-separated buffer sizes in pages for the three-way comparison")
		simWarm = flag.Int64("sim-warmup", def.SimWarmupTxns, "synthetic simulation warmup transactions")
		batches = flag.Int("sim-batches", def.SimBatches, "synthetic simulation batches")
		batchTx = flag.Int64("sim-batch-txns", def.SimBatchTxns, "transactions per synthetic batch")
		tol     = flag.Float64("tol", def.TolReplaySim, "engine-vs-simulation miss-rate tolerance")
		tolAna  = flag.Float64("tol-analytic", def.TolAnalytic, "simulation-vs-analytic miss-rate tolerance")
		out     = flag.String("out", "", "directory for xval.tsv and xval.json (empty = stdout TSV only)")
	)
	flag.Parse()

	const tool = "tpcc-xval"
	cliutil.RequirePositive(tool, "warehouses", int64(*wh))
	cliutil.RequirePositive(tool, "buffer-pages", int64(*pages))
	cliutil.RequirePositive(tool, "page-size", int64(*pageSize))
	cliutil.RequireNonNegative(tool, "warmup", int64(*warmup))
	cliutil.RequirePositive(tool, "txns", int64(*txns))
	cliutil.RequireNonNegative(tool, "sim-warmup", *simWarm)
	cliutil.RequirePositive(tool, "sim-batches", int64(*batches))
	cliutil.RequirePositive(tool, "sim-batch-txns", *batchTx)
	cliutil.RequirePositiveFloat(tool, "tol", *tol)
	cliutil.RequirePositiveFloat(tool, "tol-analytic", *tolAna)
	caps, err := parseCaps(*capsFlag)
	if err != nil {
		cliutil.Fail(tool, "-capacities: %v", err)
	}

	cfg := xval.Config{
		Warehouses:      *wh,
		PageSize:        *pageSize,
		BufferPages:     *pages,
		WarmupTxns:      *warmup,
		MeasureTxns:     *txns,
		Seed:            *seed,
		CapacitiesPages: caps,
		SimWarmupTxns:   *simWarm,
		SimBatches:      *batches,
		SimBatchTxns:    *batchTx,
		TolReplaySim:    *tol,
		TolAnalytic:     *tolAna,
	}
	if err := cfg.Validate(); err != nil {
		cliutil.Fail(tool, "%v", err)
	}

	start := time.Now()
	res, err := xval.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %d measured accesses in %v\n",
		tool, res.MeasuredAccesses, time.Since(start).Round(time.Millisecond))

	if *out == "" {
		if err := res.WriteTSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			os.Exit(1)
		}
	} else {
		if err := writeReports(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s and %s\n", tool,
			filepath.Join(*out, "xval.tsv"), filepath.Join(*out, "xval.json"))
	}

	if err := res.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: DISAGREEMENT: %v\n", tool, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: all gates passed (exact replay + both tolerances)\n", tool)
}

func capsDefault(caps []int64) string {
	parts := make([]string, len(caps))
	for i, c := range caps {
		parts[i] = strconv.FormatInt(c, 10)
	}
	return strings.Join(parts, ",")
}

func parseCaps(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad capacity %q", part)
		}
		if v <= 0 {
			return nil, fmt.Errorf("capacity must be positive, got %d", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("need at least one capacity")
	}
	return out, nil
}

func writeReports(dir string, res *xval.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tsv, err := os.Create(filepath.Join(dir, "xval.tsv"))
	if err != nil {
		return err
	}
	if err := res.WriteTSV(tsv); err != nil {
		tsv.Close()
		return err
	}
	if err := tsv.Close(); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "xval.json"))
	if err != nil {
		return err
	}
	if err := res.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}
