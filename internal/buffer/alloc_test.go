package buffer

import (
	"testing"
)

// assertNoAllocs runs op a few times to warm the pool's slots, spare
// buffers and write records up, then requires it to allocate nothing.
func assertNoAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	for i := 0; i < 16; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("%s: %.1f allocs/op after warm-up, want 0", name, allocs)
	}
}

func TestReadHitAllocatesNothing(t *testing.T) {
	p, ids, io := newPool(t, 4, 2)
	buf := make([]byte, pageSize)
	read := func() {
		if err := p.ReadPage(ids[0], buf); err != nil {
			t.Fatal(err)
		}
	}
	read()
	base := io.Snapshot()
	assertNoAllocs(t, "ReadPage hit", read)
	if d := io.Snapshot().Sub(base); d.Reads != 0 || d.BufferHits == 0 {
		t.Fatalf("hit loop did physical I/O: %v", d)
	}
}

func TestCleanEvictionAllocatesNothing(t *testing.T) {
	p, ids, io := newPool(t, 2, 4)
	buf := make([]byte, pageSize)
	i := 0
	// Cycling 4 pages through 2 frames misses every time and evicts
	// a clean frame every time.
	read := func() {
		if err := p.ReadPage(ids[i%len(ids)], buf); err != nil {
			t.Fatal(err)
		}
		i++
	}
	base := io.Snapshot()
	assertNoAllocs(t, "ReadPage miss, clean victim", read)
	if d := io.Snapshot().Sub(base); d.BufferHits != 0 || d.Writes != 0 {
		t.Fatalf("clean-eviction loop: %v; want only misses and no writes", d)
	}
}

func TestDirtyEvictionAllocatesNothing(t *testing.T) {
	p, ids, io := newPool(t, 1, 2)
	a, b := ids[0], ids[1]
	buf := make([]byte, pageSize)
	src := page(3)
	// Per op: dirty a, then a read miss of b evicts dirty a (with its
	// write-back), then a read miss of a evicts clean b.
	op := func() {
		if err := p.WritePage(a, src); err != nil {
			t.Fatal(err)
		}
		if err := p.ReadPage(b, buf); err != nil {
			t.Fatal(err)
		}
		if err := p.ReadPage(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	op()
	base := io.Snapshot()
	assertNoAllocs(t, "ReadPage miss, dirty victim", op)
	d := io.Snapshot().Sub(base)
	if d.Writes == 0 || d.Writes*2 != d.Reads {
		t.Fatalf("dirty-eviction loop: %v; want one write-back per two misses", d)
	}
}

func TestWriteMissAllocatesNothing(t *testing.T) {
	p, ids, io := newPool(t, 2, 4)
	src := page(9)
	i := 0
	// Cycling 4 pages through 2 frames: every write misses and evicts
	// a dirty frame.
	write := func() {
		if err := p.WritePage(ids[i%len(ids)], src); err != nil {
			t.Fatal(err)
		}
		i++
	}
	base := io.Snapshot()
	assertNoAllocs(t, "WritePage miss", write)
	if d := io.Snapshot().Sub(base); d.Writes == 0 || d.Reads != 0 {
		t.Fatalf("write-miss loop: %v; want write-backs and no reads", d)
	}
}
