package buffer

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// stamp fills buf with a pattern derived from the page id and a
// version, so bytes that leak across pages (a recycled buffer handed
// out too early) or across versions (a stale cache) are recognizable.
func stamp(buf []byte, id pagestore.PageID, ver uint64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], ver)
	for i := 16; i < len(buf); i++ {
		buf[i] = byte(uint64(id)*31 + ver*7 + uint64(i))
	}
}

// checkStamp reports whether buf holds exactly stamp(id, ver).
func checkStamp(buf []byte, id pagestore.PageID, ver uint64) bool {
	want := make([]byte, len(buf))
	stamp(want, id, ver)
	return string(buf) == string(want)
}

// TestStressRecycledBuffersStayPrivate hammers a tiny pool over a slow
// disk. Every page has one writer that stamps its id and a new
// version into it and checks every read back against the newest
// stamp; pages are retired (Discard + Free) and recycled ids
// re-allocated mid-run, and a flusher runs alongside. Like a tree node,
// a page is written as soon as it is allocated: a canceled write-back
// that passed its cancel check before the Discard may still land on a
// recycled page, so the pool orders it before the new owner's writes
// but cannot make a never-written page read as zeroes. A tiny pool plus
// disk latency keeps several write-backs of one page in flight at once,
// so they chain; the test checks that it saw such chains. Run it with
// -race.
func TestStressRecycledBuffersStayPrivate(t *testing.T) {
	io := &stats.IO{}
	store := pagestore.New(pageSize, io)
	store.SetLatency(200 * time.Microsecond)
	p := New(store, 3)
	const workers = 12
	rounds := 400
	if testing.Short() {
		rounds = 150
	}

	var chained atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // flusher
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if err := p.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // observer: count pages with two write-backs in flight
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.mu.Lock()
			for i := range p.pages {
				if iw := p.pages[i].inflight; iw != nil && iw.prev != nil {
					chained.Add(1)
				}
			}
			p.mu.Unlock()
			time.Sleep(20 * time.Microsecond)
		}
	}()

	type owned struct {
		id  pagestore.PageID
		ver uint64
	}
	// write stamps a fresh version, unique across all pages and owners
	// of a recycled id, into o's page.
	var versions atomic.Uint64
	write := func(o *owned, buf []byte) error {
		o.ver = versions.Add(1)
		stamp(buf, o.id, o.ver)
		return p.WritePage(o.id, buf)
	}
	final := make([][]owned, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			mine := []owned{{id: store.Alloc()}, {id: store.Alloc()}}
			buf := make([]byte, pageSize)
			for i := range mine {
				if err := write(&mine[i], buf); err != nil {
					t.Error(err)
					return
				}
			}
			for r := 0; r < rounds; r++ {
				o := &mine[rng.Intn(len(mine))]
				switch k := rng.Intn(8); {
				case k < 4:
					if err := write(o, buf); err != nil {
						t.Error(err)
						return
					}
				case k < 7:
					if err := p.ReadPage(o.id, buf); err != nil {
						t.Error(err)
						return
					}
					if !checkStamp(buf, o.id, o.ver) {
						t.Errorf("worker %d: page %d read id %d ver %d, want ver %d",
							w, o.id, binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:]), o.ver)
						return
					}
				default:
					// Retire the page and take a fresh (often recycled) one.
					p.Discard(o.id)
					if err := store.Free(o.id); err != nil {
						t.Error(err)
						return
					}
					*o = owned{id: store.Alloc()}
					if err := write(o, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
			final[w] = mine
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	store.SetLatency(0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	for w, mine := range final {
		for _, o := range mine {
			if err := store.ReadInto(o.id, buf); err != nil {
				t.Fatal(err)
			}
			if !checkStamp(buf, o.id, o.ver) {
				t.Fatalf("worker %d: page %d on disk holds id %d ver %d after flush, want ver %d",
					w, o.id, binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:]), o.ver)
			}
		}
	}
	p.mu.Lock()
	pending := p.pending
	p.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d write-backs still pending after the final flush", pending)
	}
	if chained.Load() == 0 {
		t.Fatal("no page ever had two write-backs in flight; the test exercises no chaining")
	}
}
