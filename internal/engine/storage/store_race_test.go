package storage

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestStoreConcurrentPageIO exercises the shared-lock page-I/O path: many
// goroutines read and flush disjoint pages while others allocate new pages
// and poll the counters. Run under -race this checks the RWMutex + atomic
// stats + pooled-scratch design; the per-page content check verifies that
// concurrent flushes never bleed scratch buffers across pages.
func TestStoreConcurrentPageIO(t *testing.T) {
	const (
		pageSize = 512
		pages    = 16
		workers  = 8
		rounds   = 200
	)
	s := mustStore(t, pageSize)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = mustAlloc(t, s)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			// Each worker owns a disjoint slice of pages: same-page
			// serialization is the caller's contract, so the test honours it.
			for r := 0; r < rounds; r++ {
				for i := w; i < pages; i += workers {
					binary.LittleEndian.PutUint64(buf, uint64(i)<<32|uint64(r))
					if err := s.Flush(ids[i], buf); err != nil {
						errs <- err
						return
					}
					got := make([]byte, pageSize)
					if err := s.Read(ids[i], got); err != nil {
						errs <- err
						return
					}
					v := binary.LittleEndian.Uint64(got)
					if v>>32 != uint64(i) {
						t.Errorf("page %d served content of page %d", i, v>>32)
						return
					}
				}
			}
		}()
	}
	// Allocator and stats pollers run alongside the page I/O.
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, pageSize)
		for r := 0; r < rounds; r++ {
			id, err := s.Allocate()
			if err != nil {
				errs <- err
				return
			}
			if err := s.Read(id, buf); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			st := s.Stats()
			if st.Reads < 0 || st.Writes < 0 {
				t.Error("negative I/O counters")
				return
			}
			s.IOCounts()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Detected != 0 || st.Repaired != 0 {
		t.Fatalf("unexpected integrity events on a fault-free device: %+v", st)
	}
	if st.Writes < int64(rounds*pages) {
		t.Fatalf("writes = %d, want at least %d", st.Writes, rounds*pages)
	}
}

// TestMemDiskConcurrentAllocate runs Allocate on the dense page table
// while other goroutines read and write pages allocated before and
// during the run. Under -race it checks that growing the table never
// races a lookup; the content checks show no page is served another
// page's bytes after the table moved.
func TestMemDiskConcurrentAllocate(t *testing.T) {
	const (
		size    = 64
		initial = 8
		workers = 4
		rounds  = 500
	)
	d := NewMemDisk()
	for i := 0; i < initial; i++ {
		d.Allocate(size)
	}
	var wg sync.WaitGroup
	allocated := make(chan PageID, rounds)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(allocated)
		for r := 0; r < rounds; r++ {
			allocated <- d.Allocate(size)
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			got := make([]byte, size)
			// Each worker owns the initial pages congruent to w and
			// checks that its own writes read back through a growing table.
			for r := 0; r < rounds; r++ {
				id := PageID(w + workers*(r%(initial/workers)))
				binary.LittleEndian.PutUint64(buf, uint64(id)<<32|uint64(r))
				area := Area(r % 2)
				if err := d.Write(id, area, buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Read(id, area, got); err != nil {
					t.Error(err)
					return
				}
				if v := binary.LittleEndian.Uint64(got); v != uint64(id)<<32|uint64(r) {
					t.Errorf("page %d (%s) read back %#x", id, area, v)
					return
				}
				if n := d.Pages(); n < initial {
					t.Errorf("Pages() = %d below the %d allocated up front", n, initial)
					return
				}
			}
		}()
	}
	// New pages are readable, zero-filled in both areas, as soon as
	// Allocate returns them.
	buf := make([]byte, size)
	for id := range allocated {
		for _, area := range []Area{AreaData, AreaJournal} {
			if err := d.Read(id, area, buf); err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(buf) != 0 {
				t.Fatalf("fresh page %d (%s) is not zero", id, area)
			}
		}
	}
	wg.Wait()
	if n := d.Pages(); n != initial+rounds {
		t.Fatalf("Pages() = %d, want %d", n, initial+rounds)
	}
}
