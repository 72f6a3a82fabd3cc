package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// lruModel is the reference the pool must match op for op: a plain LRU
// write-back cache over a map "disk", kept deliberately naive.
type lruModel struct {
	cap   int
	order []pagestore.PageID // most recently used first
	cache map[pagestore.PageID][]byte
	dirty map[pagestore.PageID]bool
	disk  map[pagestore.PageID][]byte
	io    stats.Snapshot
}

func newLRUModel(capacity int, disk map[pagestore.PageID][]byte) *lruModel {
	return &lruModel{cap: capacity, cache: map[pagestore.PageID][]byte{}, dirty: map[pagestore.PageID]bool{}, disk: disk}
}

func (m *lruModel) unlink(id pagestore.PageID) {
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
		}
	}
}

func (m *lruModel) drop(id pagestore.PageID) {
	m.unlink(id)
	delete(m.cache, id)
	delete(m.dirty, id)
}

// access brings id to the front, loading or creating it on a miss, and
// returns its cached bytes (nil at capacity zero).
func (m *lruModel) access(id pagestore.PageID, load bool) []byte {
	if b, ok := m.cache[id]; ok {
		m.unlink(id)
		m.order = append([]pagestore.PageID{id}, m.order...)
		if load {
			m.io.BufferHits++
		}
		return b
	}
	if len(m.order) >= m.cap {
		lru := m.order[len(m.order)-1]
		if m.dirty[lru] {
			m.disk[lru] = m.cache[lru]
			m.io.Writes++
		}
		m.drop(lru)
	}
	b := append([]byte(nil), m.disk[id]...)
	if load {
		m.io.Reads++
	}
	m.order, m.cache[id] = append([]pagestore.PageID{id}, m.order...), b
	return b
}

func (m *lruModel) read(id pagestore.PageID) []byte {
	if m.cap == 0 {
		m.io.Reads++
		return m.disk[id]
	}
	return m.access(id, true)
}

func (m *lruModel) write(id pagestore.PageID, src []byte) {
	if m.cap == 0 {
		m.disk[id] = append([]byte(nil), src...)
		m.io.Writes++
		return
	}
	copy(m.access(id, false), src)
	m.dirty[id] = true
}

func (m *lruModel) flush() {
	for _, id := range m.order {
		if m.dirty[id] {
			m.disk[id] = append([]byte(nil), m.cache[id]...)
			m.dirty[id] = false
			m.io.Writes++
		}
	}
}

// poolOp names the operations the model test and FuzzPoolOps drive.
type poolOp int

const (
	opRead poolOp = iota
	opWrite
	opScan
	opDiscard
	opInvalidate
	opFlush
	numPoolOps
)

// modelHarness drives one pool and one lruModel in lockstep and
// reports the first divergence.
type modelHarness struct {
	pool  *Pool
	io    *stats.IO
	ids   []pagestore.PageID
	model *lruModel
	dst   []byte
	scan  copyScan
}

func newModelHarness(capacity, pages int) *modelHarness {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	disk := map[pagestore.PageID][]byte{}
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		ids[i] = store.Alloc()
		disk[ids[i]] = make([]byte, pageSize)
	}
	return &modelHarness{
		pool:  New(store, capacity),
		io:    io,
		ids:   ids,
		model: newLRUModel(capacity, disk),
		dst:   make([]byte, pageSize),
	}
}

// step applies op to page slot (writing fill) on both sides and
// compares bytes read, I/O counters and the LRU order.
func (h *modelHarness) step(t *testing.T, n int, op poolOp, slot int, fill byte) {
	t.Helper()
	id := h.ids[slot%len(h.ids)]
	var want []byte
	switch op {
	case opRead, opScan:
		want = h.model.read(id)
		var got []byte
		if op == opRead {
			if err := h.pool.ReadPage(id, h.dst); err != nil {
				t.Fatal(err)
			}
			got = h.dst
		} else {
			if err := h.pool.ScanPage(id, h.dst, &h.scan); err != nil {
				t.Fatal(err)
			}
			got = h.scan.got
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: op %d page %d read %v, model %v", n, op, id, got[:4], want[:4])
		}
	case opWrite:
		src := page(fill)
		h.model.write(id, src)
		if err := h.pool.WritePage(id, src); err != nil {
			t.Fatal(err)
		}
	case opDiscard:
		if h.model.cap > 0 {
			h.model.drop(id)
		}
		h.pool.Discard(id)
	case opInvalidate:
		for _, id := range append([]pagestore.PageID(nil), h.model.order...) {
			h.model.drop(id)
		}
		h.pool.Invalidate()
	case opFlush:
		h.model.flush()
		if err := h.pool.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.io.Snapshot(); got != h.model.io {
		t.Fatalf("step %d: op %d page %d: pool I/O %+v, model %+v", n, op, id, got, h.model.io)
	}
	if got := lruOrder(h.pool); !equalIDs(got, h.model.order) {
		t.Fatalf("step %d: op %d page %d: pool LRU %v, model %v", n, op, id, got, h.model.order)
	}
	if h.pool.Len() != len(h.model.order) {
		t.Fatalf("step %d: pool Len %d, model %d", n, h.pool.Len(), len(h.model.order))
	}
}

// finish flushes both sides and compares the whole disk.
func (h *modelHarness) finish(t *testing.T) {
	t.Helper()
	h.step(t, -1, opFlush, 0, 0)
	for _, id := range h.ids {
		if err := h.pool.Store().ReadInto(id, h.dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.dst, h.model.disk[id]) {
			t.Fatalf("page %d on disk %v after flush, model %v", id, h.dst[:4], h.model.disk[id][:4])
		}
	}
}

// TestPoolMatchesLRUModel drives a random op mix through the pool and
// the reference model at capacity zero, one, small and whole-store.
func TestPoolMatchesLRUModel(t *testing.T) {
	const pages = 16
	weights := []poolOp{opRead, opRead, opRead, opWrite, opWrite, opScan, opScan, opDiscard}
	for _, capacity := range []int{0, 1, 4, pages} {
		h := newModelHarness(capacity, pages)
		rng := rand.New(rand.NewSource(int64(capacity) + 7))
		for n := 0; n < 3000; n++ {
			op := weights[rng.Intn(len(weights))]
			switch rng.Intn(200) {
			case 0:
				op = opInvalidate
			case 1, 2:
				op = opFlush
			}
			h.step(t, n, op, rng.Intn(pages), byte(rng.Intn(256)))
		}
		h.finish(t)
		if capacity > 0 && h.io.BufferHits() == 0 {
			t.Fatalf("cap %d: no buffer hits; the sequence exercises nothing", capacity)
		}
	}
}

// FuzzPoolOps decodes an op sequence from bytes — the first byte picks
// the capacity, then each byte pair is (op and page, fill) — and checks
// the pool against the reference model after every op.
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{2, 0x10, 1, 0x21, 2, 0x32, 3, 0x00, 0, 0x13, 4})
	f.Add([]byte{0, 0x10, 7, 0x01, 0, 0x42, 0})
	f.Add([]byte{5, 0x11, 1, 0x12, 2, 0x13, 3, 0x14, 4, 0x15, 5, 0x16, 6, 0x40, 0, 0x03, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const pages = 8
		h := newModelHarness(int(data[0]%(pages+2)), pages)
		for n, i := 0, 1; i+1 < len(data); n, i = n+1, i+2 {
			h.step(t, n, poolOp(int(data[i]>>4)%int(numPoolOps)), int(data[i]&0xf), data[i+1])
		}
		h.finish(t)
	})
}
