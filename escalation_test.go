package burtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"burtree/internal/core"
	"burtree/internal/summary"
)

// TestConcurrentBatchEscalation runs two clients of UpdateBatch whose
// moves force ascents and top-down passes (long jumps and jumps out of
// the root MBR) besides local ones, on GBU and LBU. The declined moves
// of each leaf group escalate straight to the exclusive path; afterwards
// the tree, the GBU summary and every object's location must be exact,
// and the lock layer must account for every applied move exactly once,
// as either local or escalated.
func TestConcurrentBatchEscalation(t *testing.T) {
	for _, s := range []Strategy{GeneralizedBottomUp, LocalizedBottomUp} {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			const n = 3000
			x, err := OpenConcurrent(Options{Strategy: s, ExpectedObjects: n, BufferPages: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			rng := rand.New(rand.NewSource(3))
			oracle := make([]Point, n)
			for i := range oracle {
				oracle[i] = Point{X: rng.Float64(), Y: rng.Float64()}
				if err := x.Insert(uint64(i), oracle[i]); err != nil {
					t.Fatal(err)
				}
			}

			const clients, batch = 2, 64
			rounds := 30
			if testing.Short() {
				rounds = 10
			}
			applied := make([]int, clients)
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					// Disjoint id ranges: concurrent moves of one object
					// need caller-side ordering, as with Update.
					lo := c * n / clients
					span := n / clients
					rng := rand.New(rand.NewSource(int64(100 + c)))
					for r := 0; r < rounds; r++ {
						changes := make([]Change, 0, batch)
						seen := make(map[uint64]bool, batch)
						for len(changes) < batch {
							id := uint64(lo + rng.Intn(span))
							if seen[id] {
								continue
							}
							seen[id] = true
							p := oracle[id]
							var to Point
							switch k := rng.Intn(10); {
							case k < 6: // local: a short move
								to = Point{X: p.X + (rng.Float64()*2-1)*0.01, Y: p.Y + (rng.Float64()*2-1)*0.01}
							case k < 9: // a long jump: shift, ascent or top-down
								to = Point{X: rng.Float64(), Y: rng.Float64()}
							default: // outside the root MBR: top-down
								to = Point{X: 1 + rng.Float64()*0.1, Y: rng.Float64()}
							}
							changes = append(changes, Change{ID: id, To: to})
						}
						res, err := x.UpdateBatch(changes)
						if err != nil {
							errs <- err
							return
						}
						if res.Applied != len(changes) {
							errs <- fmt.Errorf("client %d: batch applied %d of %d", c, res.Applied, len(changes))
							return
						}
						applied[c] += res.Applied
						for _, ch := range changes {
							oracle[ch.ID] = ch.To
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var serr error
			x.db.View(func(u core.Updater) {
				if g, ok := u.(interface{ Summary() *summary.Structure }); ok {
					serr = g.Summary().Validate(u.Tree())
				}
			})
			if serr != nil {
				t.Fatal(serr)
			}
			for id, want := range oracle {
				if got, ok := x.Location(uint64(id)); !ok || got != want {
					t.Fatalf("Location(%d) = %v, %v; oracle %v", id, got, ok, want)
				}
				found := false
				if err := x.SearchFunc(Rect{MinX: want.X, MinY: want.Y, MaxX: want.X, MaxY: want.Y}, func(got uint64, _ Point) bool {
					found = found || got == uint64(id)
					return !found
				}); err != nil {
					t.Fatal(err)
				}
				if !found {
					t.Fatalf("object %d not in the tree at %v", id, want)
				}
			}

			st, cs := x.Stats()
			total := int64(applied[0] + applied[1])
			if cs.Local+cs.Escalated != total || cs.Updates != total {
				t.Fatalf("lock layer counted %d local + %d escalated (%d updates); %d moves applied", cs.Local, cs.Escalated, cs.Updates, total)
			}
			if cs.Escalated == 0 || st.Outcomes.TopDown == 0 {
				t.Fatalf("workload forced no escalation: %+v, outcomes %+v", cs, st.Outcomes)
			}
			if s == GeneralizedBottomUp && st.Outcomes.Ascended == 0 {
				t.Fatalf("GBU workload forced no ascent: outcomes %+v", st.Outcomes)
			}
		})
	}
}
