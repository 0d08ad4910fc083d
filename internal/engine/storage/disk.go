package storage

import (
	"errors"
	"fmt"
	"sync"
)

// Error sentinels for the I/O boundary. Distinguishing fault classes is
// what makes the engine's robustness testable: callers retry transient
// errors, surface misuse immediately, stop on a simulated crash, and treat
// checksum mismatches as detected (never silent) corruption.
var (
	// ErrTransientIO marks an I/O error that may succeed on retry (an
	// injected glitch, a busy device). The runner's retry policy backs
	// off and re-executes the transaction.
	ErrTransientIO = errors.New("storage: transient I/O error")

	// ErrCrashed marks I/O refused because the simulated machine has
	// lost power. Workers observing it must stop; the harness then
	// discards volatile state and runs recovery.
	ErrCrashed = errors.New("storage: simulated power loss")

	// ErrCorruptPage marks a page whose checksum failed on both the
	// primary copy and the journal mirror: detected, unrecoverable.
	ErrCorruptPage = errors.New("storage: page checksum mismatch")

	// ErrInvalidArgument marks caller misuse (bad sizes, unallocated
	// pages, out-of-range slots) as opposed to device faults.
	ErrInvalidArgument = errors.New("storage: invalid argument")

	// ErrNoRecord marks a read of an empty heap slot; recovery uses it
	// to distinguish "row absent" from real I/O failures.
	ErrNoRecord = errors.New("storage: no record")
)

// CorruptPageError identifies the page whose checksum failed with no
// recoverable copy. It unwraps to ErrCorruptPage.
type CorruptPageError struct{ ID PageID }

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %d corrupt on primary and journal copies", e.ID)
}

// Unwrap lets errors.Is(err, ErrCorruptPage) match.
func (e *CorruptPageError) Unwrap() error { return ErrCorruptPage }

// Area selects which copy of a page a DiskIO operation addresses. Every
// durable page has two physical copies: the in-place data image and a
// journal mirror written first on each flush (the doublewrite idea), so a
// flush torn by power loss always leaves one intact copy.
type Area uint8

// Page areas.
const (
	AreaData Area = iota
	AreaJournal
)

// String names the area.
func (a Area) String() string {
	if a == AreaJournal {
		return "journal"
	}
	return "data"
}

// DiskIO is the raw page-device boundary under the Store. The in-memory
// MemDisk is the real device; the fault package wraps one to inject
// transient errors, bit flips, and crash-torn writes. Implementations must
// be safe for concurrent use.
type DiskIO interface {
	// Allocate reserves a new zero-filled physical page of size bytes in
	// both areas and returns its ID.
	Allocate(size int) PageID
	// Read copies the physical image of page id's area into buf, which
	// must match the allocated size.
	Read(id PageID, area Area, buf []byte) error
	// Write makes buf the physical image of page id's area.
	Write(id PageID, area Area, buf []byte) error
	// Pages returns the number of allocated pages.
	Pages() int64
}

// memDiskSlabPages is how many pages' worth of backing memory MemDisk
// reserves per slab: page storage is carved from slabs so allocating a
// page costs amortized fractions of a heap allocation, not two.
const memDiskSlabPages = 64

// MemDisk is the baseline DiskIO: a fault-free in-memory page device.
// Page IDs are handed out densely from 0, so the page table is a slice
// indexed by PageID: with the slab carving, Allocate is amortized O(1)
// and Read/Write find a page by one index, no hashing.
type MemDisk struct {
	mu    sync.RWMutex
	pages []memPage // indexed by PageID
	slab  []byte
}

// memPage is one allocated page's two physical copies.
type memPage struct{ data, journal []byte }

// NewMemDisk creates an empty device.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// Allocate implements DiskIO.
func (m *MemDisk) Allocate(size int) PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	need := 2 * size
	if len(m.slab) < need {
		m.slab = make([]byte, need*memDiskSlabPages)
	}
	m.pages = append(m.pages, memPage{
		data:    m.slab[:size:size],
		journal: m.slab[size:need:need],
	})
	m.slab = m.slab[need:]
	return PageID(len(m.pages) - 1)
}

func (m *MemDisk) area(id PageID, area Area) ([]byte, error) {
	if id >= PageID(len(m.pages)) {
		return nil, fmt.Errorf("storage: access to unallocated page %d (%s): %w",
			id, area, ErrInvalidArgument)
	}
	if area == AreaJournal {
		return m.pages[id].journal, nil
	}
	return m.pages[id].data, nil
}

// Read implements DiskIO.
func (m *MemDisk) Read(id PageID, area Area, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, err := m.area(id, area)
	if err != nil {
		return err
	}
	if len(buf) != len(p) {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d: %w",
			len(buf), len(p), ErrInvalidArgument)
	}
	copy(buf, p)
	return nil
}

// Write implements DiskIO.
func (m *MemDisk) Write(id PageID, area Area, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.area(id, area)
	if err != nil {
		return err
	}
	if len(buf) != len(p) {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d: %w",
			len(buf), len(p), ErrInvalidArgument)
	}
	copy(p, buf)
	return nil
}

// Pages implements DiskIO.
func (m *MemDisk) Pages() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.pages))
}
