package storage

import (
	"bytes"
	"errors"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

func TestMemDiskUnallocatedPage(t *testing.T) {
	d := NewMemDisk()
	buf := make([]byte, 64)
	for _, area := range []Area{AreaData, AreaJournal} {
		if err := d.Read(0, area, buf); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("read of page 0 (%s) on an empty disk = %v, want ErrInvalidArgument", area, err)
		}
	}
	id := d.Allocate(len(buf))
	for _, area := range []Area{AreaData, AreaJournal} {
		if err := d.Read(id, area, buf); err != nil {
			t.Errorf("read of allocated page (%s): %v", area, err)
		}
		if err := d.Read(id+1, area, buf); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("read past the last page (%s) = %v, want ErrInvalidArgument", area, err)
		}
		if err := d.Write(id+1, area, buf); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("write past the last page (%s) = %v, want ErrInvalidArgument", area, err)
		}
	}
}

func TestMemDiskSizesAndPages(t *testing.T) {
	const size = 100
	d := NewMemDisk()
	// More pages than one slab holds, so allocation crosses slab edges.
	const n = 3*memDiskSlabPages + 5
	for i := 0; i < n; i++ {
		if id := d.Allocate(size); id != PageID(i) {
			t.Fatalf("allocation %d returned page %d", i, id)
		}
		if got := d.Pages(); got != int64(i+1) {
			t.Fatalf("Pages() = %d after %d allocations", got, i+1)
		}
	}
	for _, area := range []Area{AreaData, AreaJournal} {
		for _, bad := range []int{0, size - 1, size + 1} {
			if err := d.Read(1, area, make([]byte, bad)); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("%d-byte read (%s) = %v, want ErrInvalidArgument", bad, area, err)
			}
			if err := d.Write(1, area, make([]byte, bad)); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("%d-byte write (%s) = %v, want ErrInvalidArgument", bad, area, err)
			}
		}
	}
	// Every page's two areas are distinct, zero-filled and independent.
	for id := PageID(0); id < n; id++ {
		if err := d.Write(id, AreaData, bytes.Repeat([]byte{byte(id)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, size)
	for id := PageID(0); id < n; id++ {
		if err := d.Read(id, AreaData, buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{byte(id)}, size)) {
			t.Fatalf("page %d data: err=%v, content not its own", id, err)
		}
		if err := d.Read(id, AreaJournal, buf); err != nil || !bytes.Equal(buf, make([]byte, size)) {
			t.Fatalf("page %d journal: err=%v, not zero", id, err)
		}
	}
}

// refInsert is HeapFile.Insert with a bit-at-a-time slot search: the
// reference the byte-wise search must match.
func refInsert(h *HeapFile, rec []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.freePages) > 0 {
		idx := h.freePages[len(h.freePages)-1]
		pid := h.pages[idx]
		p, err := h.pager.Pin(pid)
		if err != nil {
			return RID{}, err
		}
		slot := -1
		for s := 0; s < h.slots; s++ {
			if !bitmapGet(p.Data, s) {
				bitmapSet(p.Data, s, true)
				off := slotOffset(h.slots, h.recLen, s)
				copy(p.Data[off:off+h.recLen], rec)
				slot = s
				break
			}
		}
		h.pager.Unpin(p, slot >= 0)
		if slot >= 0 {
			if slot == h.slots-1 {
				h.freePages = h.freePages[:len(h.freePages)-1]
			}
			h.liveCount++
			return RID{Page: pid, Slot: uint16(slot)}, nil
		}
		h.freePages = h.freePages[:len(h.freePages)-1]
	}
	pid, err := h.pager.Allocate()
	if err != nil {
		return RID{}, err
	}
	err = h.pager.With(pid, true, func(page []byte) {
		h.formatPage(page)
		bitmapSet(page, 0, true)
		off := slotOffset(h.slots, h.recLen, 0)
		copy(page[off:off+h.recLen], rec)
	})
	if err != nil {
		return RID{}, err
	}
	h.pages = append(h.pages, pid)
	if h.slots > 1 {
		h.freePages = append(h.freePages, len(h.pages)-1)
	}
	h.liveCount++
	return RID{Page: pid, Slot: 0}, nil
}

// refLive is the bit-at-a-time live-slot count AttachPages used.
func refLive(page []byte, slots int) int {
	live := 0
	for s := 0; s < slots; s++ {
		if bitmapGet(page, s) {
			live++
		}
	}
	return live
}

// TestSlotSearchMatchesBitLoop runs one random insert/delete sequence on
// two heaps, one through Insert and one through refInsert, for TPC-C
// record lengths whose slot counts are not multiples of 8 (13 stock, 503
// new-order records per 4 KiB page). Every insert must return the same
// RID, and re-attaching the pages must count the same live records.
func TestSlotSearchMatchesBitLoop(t *testing.T) {
	const pageSize = 4096
	for _, rel := range []core.Relation{core.Stock, core.NewOrder, core.Customer, core.OrderLine} {
		recLen := tpcc.TupleLen[rel]
		got, err := NewHeapFile(rel.String(), newDirectPager(mustStore(t, pageSize)), pageSize, recLen)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewHeapFile(rel.String(), newDirectPager(mustStore(t, pageSize)), pageSize, recLen)
		if err != nil {
			t.Fatal(err)
		}
		if got.Slots()%8 == 0 {
			t.Fatalf("%s: %d slots per page is a multiple of 8", rel, got.Slots())
		}
		r := rng.New(uint64(rel) + 1)
		rec := make([]byte, recLen)
		var rids []RID
		for op := 0; op < 8*got.Slots()+400; op++ {
			if len(rids) > 0 && r.Bernoulli(0.45) {
				i := int(r.Int63n(int64(len(rids))))
				for _, h := range []*HeapFile{got, ref} {
					if err := h.Delete(rids[i]); err != nil {
						t.Fatal(err)
					}
				}
				rids[i] = rids[len(rids)-1]
				rids = rids[:len(rids)-1]
				continue
			}
			rec[0] = byte(op)
			a, err := got.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := refInsert(ref, rec)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s op %d: insert landed at %s, bit loop picks %s", rel, op, a, b)
			}
			rids = append(rids, a)
		}
		if got.Live() != ref.Live() || got.Live() != int64(len(rids)) {
			t.Fatalf("%s: live %d, reference %d, test holds %d", rel, got.Live(), ref.Live(), len(rids))
		}
		if err := got.AttachPages(got.PageIDs()); err != nil {
			t.Fatal(err)
		}
		var live int64
		for _, pid := range ref.PageIDs() {
			if err := ref.pager.With(pid, false, func(page []byte) { live += int64(refLive(page, ref.slots)) }); err != nil {
				t.Fatal(err)
			}
		}
		if got.Live() != live {
			t.Fatalf("%s: AttachPages counts %d live, bit loop %d", rel, got.Live(), live)
		}
	}
}

// TestSlotSearchIgnoresBitsPastLastSlot checks firstFree and liveSlots on
// random bitmaps, including set bits past the last slot, which neither
// may read as slots.
func TestSlotSearchIgnoresBitsPastLastSlot(t *testing.T) {
	r := rng.New(7)
	page := make([]byte, 512)
	for _, slots := range []int{1, 7, 8, 9, 13, 16, 63, 503} {
		h := &HeapFile{slots: slots}
		n := (slots + 7) / 8
		for trial := 0; trial < 200; trial++ {
			for i := 0; i < n; i++ {
				page[heapHeader+i] = byte(r.Int63n(256))
				if r.Bernoulli(0.5) {
					page[heapHeader+i] = 0xff // full bytes make the search walk on
				}
			}
			want := -1
			for s := 0; s < slots; s++ {
				if !bitmapGet(page, s) {
					want = s
					break
				}
			}
			if got := h.firstFree(page); got != want {
				t.Fatalf("%d slots: firstFree = %d, bit loop = %d (bitmap %x)", slots, got, want, page[heapHeader:heapHeader+n])
			}
			if got, want := h.liveSlots(page), refLive(page, slots); got != want {
				t.Fatalf("%d slots: liveSlots = %d, bit loop = %d (bitmap %x)", slots, got, want, page[heapHeader:heapHeader+n])
			}
		}
	}
}
