package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"burtree/internal/pagestore"
)

// copyScan records the page it was shown.
type copyScan struct{ got []byte }

func (c *copyScan) Scan(b []byte) { c.got = append(c.got[:0], b...) }

// lruOrder lists the resident pages from most to least recently used.
func lruOrder(p *Pool) []pagestore.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []pagestore.PageID
	for s := p.head; s != nilSlot; s = p.frames[s].next {
		out = append(out, p.frames[s].id)
	}
	return out
}

// TestScanPageMatchesReadPage drives one random read/write sequence
// through ReadPage on one pool and ScanPage on its twin. The in-place
// read must see the same bytes and leave the same I/O counters and the
// same LRU (hence eviction) order after every step, at capacity zero,
// a small capacity and a capacity holding the whole store.
func TestScanPageMatchesReadPage(t *testing.T) {
	const pages = 24
	for _, capacity := range []int{0, 5, pages} {
		a, idsA, ioA := newPool(t, capacity, pages)
		b, idsB, ioB := newPool(t, capacity, pages)
		for i := range idsA {
			if idsA[i] != idsB[i] {
				t.Fatalf("twin stores allocated different ids")
			}
			if err := a.Store().Write(idsA[i], page(byte(i))); err != nil {
				t.Fatal(err)
			}
			if err := b.Store().Write(idsB[i], page(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		ioA.Reset()
		ioB.Reset()
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		dst := make([]byte, pageSize)
		scratch := make([]byte, pageSize)
		var sc copyScan
		for step := 0; step < 2000; step++ {
			id := idsA[rng.Intn(pages)]
			if rng.Intn(5) == 0 {
				src := page(byte(rng.Intn(256)))
				if err := a.WritePage(id, src); err != nil {
					t.Fatal(err)
				}
				if err := b.WritePage(id, src); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := a.ReadPage(id, dst); err != nil {
					t.Fatal(err)
				}
				if err := b.ScanPage(id, scratch, &sc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, sc.got) {
					t.Fatalf("cap %d step %d: page %d scanned %v, read %v", capacity, step, id, sc.got[:4], dst[:4])
				}
			}
			if sa, sb := ioA.Snapshot(), ioB.Snapshot(); sa != sb {
				t.Fatalf("cap %d step %d: counters diverge: ReadPage %+v, ScanPage %+v", capacity, step, sa, sb)
			}
			if oa, ob := lruOrder(a), lruOrder(b); !equalIDs(oa, ob) {
				t.Fatalf("cap %d step %d: LRU order diverges: ReadPage %v, ScanPage %v", capacity, step, oa, ob)
			}
		}
		if ioA.BufferHits() == 0 && capacity > 0 {
			t.Fatalf("cap %d: sequence produced no hits; the test exercises nothing", capacity)
		}
	}
}

func equalIDs(a, b []pagestore.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanPageRejectsWrongScratchSize(t *testing.T) {
	p, ids, _ := newPool(t, 4, 1)
	var sc copyScan
	if err := p.ScanPage(ids[0], make([]byte, pageSize-1), &sc); err != pagestore.ErrPageSize {
		t.Fatalf("short scratch: err = %v, want ErrPageSize", err)
	}
}
