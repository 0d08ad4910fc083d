package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/storage"
)

// nextGID allocates a global transaction id. The coordinator shard id
// (plus one, so gid 0 keeps meaning "purely local") rides in the top 16
// bits: a recovering participant derives its coordinator from the gid
// alone, with no extra durable state.
func (c *Cluster) nextGID(coord int) uint64 {
	return uint64(coord+1)<<48 | c.gidSeq.Add(1)
}

// CoordinatorOf extracts the coordinator shard encoded in a gid.
func CoordinatorOf(gid uint64) int { return int(gid>>48) - 1 }

// forceBackoff sleeps a deterministic exponential delay between retries
// of a failed log force (attempt is 1-based).
func forceBackoff(attempt int) {
	d := 50 * time.Microsecond << uint(attempt-1)
	if d > 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	time.Sleep(d)
}

// commitRetries bounds in-protocol retries of transient force failures.
const commitRetries = 10

// pendingCommit is a participant branch whose global decision is commit
// but whose own commit record could not be forced within the retry
// budget on a live device. The branch keeps its locks; ResolvePending
// retries it. (A dead device is different: the branch is forsaken and
// recovery settles it from the durable log.)
type pendingCommit struct {
	shard int
	b     *db.Branch
}

// commitParticipant drives one prepared participant branch to its
// commit, retrying transient force failures. A crashed device forsakes
// the branch — its prepare record is durable and the coordinator's
// decision is durable, so recovery resolves it to the same commit.
func (c *Cluster) commitParticipant(id int, b *db.Branch) {
	s := c.shards[id]
	for attempt := 1; ; attempt++ {
		err := b.Commit()
		if err == nil {
			s.participantCommits.Add(1)
			return
		}
		if errors.Is(err, storage.ErrCrashed) {
			b.Forsake()
			s.forsaken.Add(1)
			s.down.Store(true)
			return
		}
		if !errors.Is(err, storage.ErrTransientIO) || attempt >= commitRetries {
			// Live device, force keeps failing: park the branch with its
			// locks held rather than losing a decided commit.
			c.pendMu.Lock()
			c.pending = append(c.pending, pendingCommit{shard: id, b: b})
			c.pendMu.Unlock()
			return
		}
		forceBackoff(attempt)
	}
}

// ResolvePending retries parked participant commits (see pendingCommit)
// and returns how many remain parked. Run it after fault pressure
// subsides and before verifying cluster invariants.
func (c *Cluster) ResolvePending() int {
	c.pendMu.Lock()
	work := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	var still []pendingCommit
	for _, p := range work {
		s := c.shards[p.shard]
		if err := p.b.Commit(); err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				p.b.Forsake()
				s.forsaken.Add(1)
				s.down.Store(true)
				continue
			}
			still = append(still, p)
			continue
		}
		s.participantCommits.Add(1)
	}
	c.pendMu.Lock()
	c.pending = append(c.pending, still...)
	n := len(c.pending)
	c.pendMu.Unlock()
	return n
}

// abandon aborts every open branch after a failure. Branches on dead
// devices are forsaken (no undo writes against a dead disk; the durable
// log owns their fate), live ones roll back normally.
func (c *Cluster) abandon(branches map[int]*db.Branch) {
	ids := make([]int, 0, len(branches))
	for id := range branches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := branches[id]
		if c.shards[id].Down() {
			b.Forsake()
			c.shards[id].forsaken.Add(1)
			continue
		}
		if err := b.Abort(); err != nil && errors.Is(err, storage.ErrCrashed) {
			c.markDownOnCrash(id, err)
		}
	}
}

// classifyBeginErr maps a branch-begin failure to the runner contract:
// a crashed shard becomes typed ErrShardDown (shed), everything else
// passes through (ErrAborted and transient I/O are retriable).
func (c *Cluster) classifyBeginErr(id int, err error) error {
	if errors.Is(err, storage.ErrCrashed) {
		c.markDownOnCrash(id, err)
		c.shards[id].sheds.Add(1)
		return fmt.Errorf("shard %d died mid-transaction: %w", id, ErrShardDown)
	}
	return err
}

// ExecNewOrder executes a New-Order whose warehouse ids (W and every
// SupplyW) are GLOBAL. Items supplied by the home shard run in the home
// branch; items supplied by other shards become participant branches
// (one per shard) committed with two-phase commit. The home branch's
// forced commit record is the global decision (presumed abort).
func (c *Cluster) ExecNewOrder(in db.NewOrderInput) (db.NewOrderResult, error) {
	var res db.NewOrderResult
	home := c.ShardOf(in.W)
	hs := c.shards[home]
	if hs.Down() {
		hs.downSheds.Add(1)
		return res, fmt.Errorf("home shard %d: %w", home, ErrShardDown)
	}

	// Split items: home-shard items get LOCAL supply ids; remote items
	// keep their GLOBAL id on the home order line (the benchmark records
	// the real supplier) and are grouped per participant with LOCAL ids.
	localIn := db.NewOrderInput{W: c.LocalW(in.W), D: in.D, C: in.C}
	remote := make(map[int][]db.OrderItem)
	for _, it := range in.Items {
		ps := c.ShardOf(it.SupplyW)
		if ps == home {
			localIn.Items = append(localIn.Items,
				db.OrderItem{IID: it.IID, SupplyW: c.LocalW(it.SupplyW), Qty: it.Qty})
			continue
		}
		localIn.Items = append(localIn.Items,
			db.OrderItem{IID: it.IID, SupplyW: it.SupplyW, Qty: it.Qty, Remote: true})
		remote[ps] = append(remote[ps],
			db.OrderItem{IID: it.IID, SupplyW: c.LocalW(it.SupplyW), Qty: it.Qty})
	}

	// Fast path: single-shard transactions skip the protocol entirely.
	if len(remote) == 0 {
		res, err := hs.DB.NewOrder(localIn)
		if err != nil {
			return res, c.classifyBeginErr(home, err)
		}
		hs.localCommits.Add(1)
		return res, nil
	}

	// Graceful degradation: refuse (typed, counted) rather than block
	// when a required participant is already known dead.
	parts := make([]int, 0, len(remote))
	for id := range remote {
		parts = append(parts, id)
	}
	sort.Ints(parts)
	for _, id := range parts {
		if c.shards[id].Down() {
			hs.sheds.Add(1)
			return res, fmt.Errorf("participant shard %d: %w", id, ErrShardDown)
		}
	}

	gid := c.nextGID(home)
	open := make(map[int]*db.Branch)

	// Begin participant branches in shard order, then the home branch.
	pbs := make(map[int]*db.Branch, len(parts))
	for _, id := range parts {
		pb, err := c.shards[id].DB.RemoteStockBegin(gid, remote[id])
		if err != nil {
			c.abandon(open)
			hs.distAborts.Add(1)
			return res, c.classifyBeginErr(id, err)
		}
		pbs[id] = pb
		open[id] = pb
	}
	hb, hres, err := hs.DB.NewOrderHomeBegin(gid, localIn)
	if err != nil {
		c.abandon(open)
		hs.distAborts.Add(1)
		return res, c.classifyBeginErr(home, err)
	}
	open[home] = hb

	// Phase 1: prepare every participant.
	for i, id := range parts {
		if err := pbs[id].Prepare(); err != nil {
			delete(open, id) // a failed prepare already rolled back
			c.abandon(open)
			hs.distAborts.Add(1)
			return res, c.classifyBeginErr(id, err)
		}
		if i == 0 {
			c.fireHook(fault.KillMidPrepare, gid)
		}
	}
	c.fireHook(fault.KillAfterPrepare, gid)

	// Phase 2: the home commit is the decision.
	if err := c.commitHome(home, hb); err != nil {
		delete(open, home)
		c.abandon(open)
		hs.distAborts.Add(1)
		return res, err
	}
	delete(open, home)
	c.fireHook(fault.KillBeforeParticipantCommit, gid)
	for _, id := range parts {
		c.commitParticipant(id, pbs[id])
	}
	hs.distCommits.Add(1)
	return hres, nil
}

// commitHome forces the home branch's commit record — the global
// decision — retrying transient failures. A crashed home device means
// the decision never became durable: presumed abort, surfaced as
// ErrCoordinatorDown. A home branch that aborted itself (an SSI pivot
// found at the decision point) has already rolled back; the global
// abort is returned at once, wrapping db.ErrAborted, for the caller to
// retry.
func (c *Cluster) commitHome(home int, hb *db.Branch) error {
	hs := c.shards[home]
	for attempt := 1; ; attempt++ {
		err := hb.Commit()
		if err == nil {
			return nil
		}
		if errors.Is(err, db.ErrAborted) {
			return fmt.Errorf("home shard %d: %w", home, err)
		}
		if errors.Is(err, storage.ErrCrashed) {
			hb.Forsake()
			hs.forsaken.Add(1)
			hs.down.Store(true)
			return fmt.Errorf("home shard %d: %w", home, ErrCoordinatorDown)
		}
		if attempt >= commitRetries {
			// Live device, decision not durable: globally abort.
			if aerr := hb.Abort(); aerr != nil {
				c.markDownOnCrash(home, aerr)
			}
			return fmt.Errorf("home shard %d: decision force failed: %w", home, err)
		}
		forceBackoff(attempt)
	}
}

// ExecPayment executes a Payment whose W and CW are GLOBAL warehouse
// ids. A customer on another shard runs as a participant branch there
// (resolving by-name selection remotely); the home branch books the
// warehouse/district YTD and the history row with the resolved id.
// Returns the number of remote customer tuples touched (selects plus
// the write-back) for the Appendix A RC_cust measurement; 0 for local.
func (c *Cluster) ExecPayment(in db.PaymentInput) (int, error) {
	home := c.ShardOf(in.W)
	cshard := c.ShardOf(in.CW)
	hs := c.shards[home]
	if hs.Down() {
		hs.downSheds.Add(1)
		return 0, fmt.Errorf("home shard %d: %w", home, ErrShardDown)
	}

	if cshard == home {
		localIn := in
		localIn.W = c.LocalW(in.W)
		localIn.CW = c.LocalW(in.CW)
		if err := hs.DB.Payment(localIn); err != nil {
			return 0, c.classifyBeginErr(home, err)
		}
		hs.localCommits.Add(1)
		return 0, nil
	}

	cs := c.shards[cshard]
	if cs.Down() {
		hs.sheds.Add(1)
		return 0, fmt.Errorf("customer shard %d: %w", cshard, ErrShardDown)
	}

	gid := c.nextGID(home)
	open := make(map[int]*db.Branch)

	// The customer branch goes first: by-name payments only learn the
	// customer id from the remote shard's name index.
	pb, cid, selected, err := cs.DB.RemotePaymentBegin(gid,
		c.LocalW(in.CW), in.CD, in.ByName, in.C, in.NameOrd, in.AmountCents)
	if err != nil {
		hs.distAborts.Add(1)
		return 0, c.classifyBeginErr(cshard, err)
	}
	open[cshard] = pb

	localIn := in
	localIn.W = c.LocalW(in.W)
	hb, err := hs.DB.PaymentHomeBegin(gid, localIn, in.CW, in.CD, cid)
	if err != nil {
		c.abandon(open)
		hs.distAborts.Add(1)
		return 0, c.classifyBeginErr(home, err)
	}
	open[home] = hb

	if err := pb.Prepare(); err != nil {
		delete(open, cshard)
		c.abandon(open)
		hs.distAborts.Add(1)
		return 0, c.classifyBeginErr(cshard, err)
	}
	c.fireHook(fault.KillMidPrepare, gid)
	c.fireHook(fault.KillAfterPrepare, gid)

	if err := c.commitHome(home, hb); err != nil {
		delete(open, home)
		c.abandon(open)
		hs.distAborts.Add(1)
		return 0, err
	}
	delete(open, home)
	c.fireHook(fault.KillBeforeParticipantCommit, gid)
	c.commitParticipant(cshard, pb)
	hs.distCommits.Add(1)
	return selected + 1, nil
}
