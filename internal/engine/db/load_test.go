package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
)

// TestPageRelMapGrowsGeometrically tags 200k dense page IDs, as a
// multi-warehouse load does, and checks that the table is reallocated
// O(log n) times rather than once per page.
func TestPageRelMapGrowsGeometrically(t *testing.T) {
	const n = 200_000
	var m pageRelMap
	grows := 0
	for id := storage.PageID(0); id < n; id++ {
		before := cap(m.rels)
		m.set(id, relOf(id))
		if cap(m.rels) != before {
			grows++
		}
	}
	if grows > 40 {
		t.Fatalf("%d page tags reallocated the table %d times, want at most 40", n, grows)
	}
	for _, id := range []storage.PageID{0, 1, 12345, n - 1} {
		if got, want := m.get(id), relOf(id); got != want {
			t.Fatalf("get(%d) = %v, want %v", id, got, want)
		}
	}
	if got := m.get(n); got != 0 {
		t.Fatalf("get of an unset page = %v, want 0", got)
	}
	var empty pageRelMap
	if got := empty.get(0); got != 0 {
		t.Fatalf("get on an empty map = %v, want 0", got)
	}
	// A tag past the end leaves the gap untagged.
	empty.set(10, core.Stock)
	if got := empty.get(5); got != 0 {
		t.Fatalf("get of a skipped page = %v, want 0", got)
	}
}

// BenchmarkLoad measures engine set-up for one warehouse: open with the
// default pool (about a fifth of the loaded pages, so the load pages
// through the buffer manager), load and verify the Table 1 counts. Run
// with -benchmem to see the set-up's allocation volume.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := OpenWith(DefaultConfig(), Options{GroupCommit: wal.DefaultGroupConfig()})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Load(1); err != nil {
			b.Fatal(err)
		}
		if err := d.VerifyCounts(); err != nil {
			b.Fatal(err)
		}
	}
}

func relOf(id storage.PageID) core.Relation {
	return core.Relation(id % storage.PageID(core.NumRelations))
}
