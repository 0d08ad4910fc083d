package shard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/tpcc"
)

// TestSSIPivotAtHomeCommitRetries makes the home branch of a distributed
// New-Order an SSI pivot after its participant has prepared, and checks
// that the coordinator aborts it globally as a retriable serialization
// failure (not a failed decision force) and that the runner's retry
// commits it.
//
// The pivot is built between prepare and the home commit, on the home
// shard, by two local transactions: a Payment on another district
// overwrites the warehouse row the New-Order read (an rw-edge out of the
// home branch), and a Stock-Level reads the district row the New-Order
// wrote below its uncommitted image (an rw-edge into it).
func TestSSIPivotAtHomeCommitRetries(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.CC = db.CCSSI
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := c.Shard(0).DB
	in := db.NewOrderInput{W: 0, D: 0, C: 0, Items: []db.OrderItem{
		{IID: 7, SupplyW: 0, Qty: 2},
		{IID: 5, SupplyW: 1, Qty: 4}, // supplied by shard 1: a participant branch
	}}

	pivots := 0
	c.SetKillHook(func(p KillPoint, gid uint64) {
		if p != fault.KillAfterPrepare || pivots > 0 {
			return
		}
		pivots++
		if err := home.Payment(db.PaymentInput{W: 0, D: 1, CW: 0, CD: 1, C: 0, AmountCents: tpcc.PaymentMinCents}); err != nil {
			t.Errorf("out-edge Payment: %v", err)
		}
		if _, err := home.StockLevel(db.StockLevelInput{W: 0, D: 0, Threshold: 15}); err != nil {
			t.Errorf("in-edge Stock-Level: %v", err)
		}
	})
	defer c.SetKillHook(nil)

	rn := NewRunner(c, 1, tpcc.DefaultMix())
	rn.Policy.BaseDelay = 0
	var errs []error
	acked, err := rn.execute(context.Background(), core.TxnNewOrder, func() error {
		_, err := c.ExecNewOrder(in)
		errs = append(errs, err)
		return err
	})
	if err != nil || !acked {
		t.Fatalf("runner: acked=%v err=%v (attempts: %v)", acked, err, errs)
	}
	if pivots != 1 || len(errs) != 2 || errs[1] != nil {
		t.Fatalf("want one pivot and two attempts, the second committed; pivots=%d attempts=%v", pivots, errs)
	}
	if !errors.Is(errs[0], db.ErrSSIAbort) || strings.Contains(errs[0].Error(), "decision force failed") {
		t.Fatalf("first attempt: %v, want a serialization failure", errs[0])
	}
	if rn.Retries() != 1 || rn.Sheds() != 0 {
		t.Fatalf("retries=%d sheds=%d, want 1 and 0", rn.Retries(), rn.Sheds())
	}
	if n := home.SSIAborts(); n != 1 {
		t.Fatalf("home shard counted %d SSI aborts, want 1", n)
	}
	st := c.Shard(0).Stats()
	if st.DistAborts != 1 || st.DistCommits != 1 {
		t.Fatalf("home shard dist aborts=%d commits=%d, want 1 and 1", st.DistAborts, st.DistCommits)
	}
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}
