package hashindex

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"burtree/internal/pagestore"
)

// lookupDecoded is the reference lookup: it walks the chain through the
// copying, decoding readPage path.
func (x *Index) lookupDecoded(oid uint64) (pagestore.PageID, error) {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()
	p := &st.pages[0]
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; {
		if err := x.readPage(st, pid, p); err != nil {
			return pagestore.InvalidPage, err
		}
		for i, o := range p.oids {
			if o == oid {
				return p.leafs[i], nil
			}
		}
		pid = p.next
	}
	return pagestore.InvalidPage, ErrNotFound
}

// TestInPlaceLookupMatchesDecodedAcrossChains builds multi-page
// overflow chains on twin indexes and checks that the in-place Lookup
// returns what the decoding walk returns, at the same page cost, with
// the buffer off, smaller than one chain, and holding everything.
func TestInPlaceLookupMatchesDecodedAcrossChains(t *testing.T) {
	for _, bufferPages := range []int{0, 2, 64} {
		a, ioA := newIndex(t, 256, bufferPages, 1)
		b, ioB := newIndex(t, 256, bufferPages, 1)
		const n = 90 // 15 slots per 256-byte page: a six-page chain
		for i := 0; i < n; i++ {
			for _, x := range []*Index{a, b} {
				if err := x.Set(uint64(i), pagestore.PageID(500+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i += 4 {
			for _, x := range []*Index{a, b} {
				if err := x.Delete(uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, x := range []*Index{a, b} { // the twins' buffers stay in step
			if s, err := x.ComputeStats(); err != nil || s.MaxChainPages < 5 {
				t.Fatalf("want a long chain, stats = %+v, %v", s, err)
			}
		}
		ioA.Reset()
		ioB.Reset()
		for i := 0; i < n+10; i++ {
			got, errA := a.Lookup(uint64(i))
			want, errB := b.lookupDecoded(uint64(i))
			if got != want || errors.Is(errA, ErrNotFound) != errors.Is(errB, ErrNotFound) {
				t.Fatalf("buffer %d: Lookup(%d) = %d, %v; decoded walk = %d, %v", bufferPages, i, got, errA, want, errB)
			}
			if errA != nil && !errors.Is(errA, ErrNotFound) {
				t.Fatalf("buffer %d: Lookup(%d): %v", bufferPages, i, errA)
			}
			if sa, sb := ioA.Snapshot(), ioB.Snapshot(); sa != sb {
				t.Fatalf("buffer %d: Lookup(%d): counters %+v, decoded walk %+v", bufferPages, i, sa, sb)
			}
		}
	}
}

// TestLookupRejectsCorruptPages: a page that is not a hash page, or
// whose count exceeds the slot capacity, is an error, never a panic or
// an out-of-range slot read — on a buffer hit (scanned in place) and
// on a read from the store.
func TestLookupRejectsCorruptPages(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b []byte, slots int)
		want    string
	}{
		{"bad magic", func(b []byte, _ int) { b[0] = 0x42 }, "not a hash page"},
		{"count over capacity", func(b []byte, slots int) {
			binary.LittleEndian.PutUint16(b[2:], uint16(slots+1))
		}, "exceeds capacity"},
		{"count at 0xffff", func(b []byte, _ int) {
			binary.LittleEndian.PutUint16(b[2:], 0xffff)
		}, "exceeds capacity"},
	}
	for _, tc := range cases {
		for _, bufferPages := range []int{0, 8} {
			x, _ := newIndex(t, 256, bufferPages, 1)
			for i := 0; i < 20; i++ { // two pages in the only bucket
				if err := x.Set(uint64(i), pagestore.PageID(100+i)); err != nil {
					t.Fatal(err)
				}
			}
			head := x.buckets[0]
			b := make([]byte, 256)
			if err := x.pool.ReadPage(head, b); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(b, x.slotsPer)
			if err := x.pool.WritePage(head, b); err != nil {
				t.Fatal(err)
			}
			_, err := x.Lookup(19)
			if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, buffer %d: Lookup err = %v, want %q", tc.name, bufferPages, err, tc.want)
			}
		}
	}
}

// TestLookupAndSetAllocateNothing pins the copy-free lookup and the
// reused decode pages: on a buffered chain, a found lookup and a
// remapping Set allocate nothing.
func TestLookupAndSetAllocateNothing(t *testing.T) {
	x, _ := newIndex(t, 256, 16, 1)
	for i := 0; i < 40; i++ { // a three-page chain
		if err := x.Set(uint64(i), pagestore.PageID(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := x.Lookup(37); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f per call, want 0", allocs)
	}
	leaf := pagestore.PageID(500)
	allocs = testing.AllocsPerRun(100, func() {
		leaf++
		if err := x.Set(37, leaf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Set allocates %.1f per call, want 0", allocs)
	}
	if got, err := x.Lookup(37); err != nil || got != leaf {
		t.Fatalf("Lookup(37) = %d, %v; want %d", got, err, leaf)
	}
}
