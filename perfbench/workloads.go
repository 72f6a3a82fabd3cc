package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"burtree"
	"burtree/internal/rtree"
	"burtree/internal/workload"
)

const (
	defaultObjects = 100_000
	defaultSetups  = 3
	pageSize       = 1024 // the paper's Table 1 default

	queryPool    = 4096 // timed-phase windows and 10-NN points, used in turn
	probeWindows = 64   // windows the gate checks by brute force
	probePoints  = 32   // 10-NN queries the gate checks by brute force
)

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workloadDef{
	{"paper-uniform", runPaperUniform},
	{"concurrent-batch", runConcurrentBatch},
	{"sharded-durable-skew", runShardedDurableSkew},
}

// errExhausted reports a client that used up its pre-generated moves
// before the timed phase ended. The client then stops early: its rates
// and percentiles stay valid over the shorter time, and the run notes it.
var errExhausted = errors.New("pre-generated moves used up")

// inputs is everything a workload sends, generated in full from the
// seed before any timing starts.
type inputs struct {
	ids     []uint64
	initial []burtree.Point
	moves   []burtree.Change // in generation order
	windows []burtree.Rect   // timed-phase window queries
	points  []burtree.Point  // timed-phase 10-NN query points
	probes  probes
}

// makeInputs generates the queries and probes first, so they do not
// depend on how many moves the run length asks for.
func makeInputs(spec workload.Spec, moves int) *inputs {
	g := workload.NewGenerator(spec)
	in := &inputs{initial: slices.Clone(g.Positions())}
	in.ids = make([]uint64, len(in.initial))
	for i := range in.ids {
		in.ids[i] = uint64(i)
	}
	for i := 0; i < queryPool; i++ {
		in.windows = append(in.windows, g.NextQuery())
		in.points = append(in.points, g.NextQuery().Center())
	}
	for i := 0; i < probeWindows; i++ {
		in.probes.windows = append(in.probes.windows, g.NextQuery())
	}
	for i := 0; i < probePoints; i++ {
		in.probes.points = append(in.probes.points, g.NextQuery().Center())
	}
	in.moves = make([]burtree.Change, moves)
	for i := range in.moves {
		u := g.NextUpdate()
		in.moves[i] = burtree.Change{ID: uint64(u.OID), To: u.New}
	}
	return in
}

// moveBudget sizes the move stream: the warm-up plus rate moves per
// second of the timed phase. rate is two to four times the throughput
// the workload reaches on a 2-CPU host.
func moveBudget(cfg config, warm int, rate float64) int {
	return warm + int(rate*cfg.seconds)
}

// oracle returns the positions after the given move streams, applied
// in order from the initial positions.
func oracle(in *inputs, streams ...[]burtree.Change) []burtree.Point {
	pos := slices.Clone(in.initial)
	for _, s := range streams {
		applyMoves(pos, s)
	}
	return pos
}

type frontEnd interface {
	BulkInsert(ids []uint64, pts []burtree.Point, method burtree.PackMethod) error
	Close() error
}

// setUp opens and bulk-loads an index cfg.setups times, timing each set
// up (setup_s is their median), and returns the last index, closing the
// others.
func setUp[T frontEnd](cfg config, r *result, tr *tracer, typ string, in *inputs, open func() (T, error)) (T, error) {
	var x T
	openID, bulkID := spanOf(typ+".Open"), spanOf(typ+".BulkInsert")
	log := tr.setupLog()
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			if err := x.Close(); err != nil {
				return x, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		y, err := open()
		if err != nil {
			return x, fmt.Errorf("open: %w", err)
		}
		t1 := time.Now()
		if err := y.BulkInsert(in.ids, in.initial, burtree.PackSTR); err != nil {
			y.Close()
			return x, fmt.Errorf("bulk insert: %w", err)
		}
		t2 := time.Now()
		log.record(tr, openID, 0, t0, t1, -1, 0)
		log.record(tr, bulkID, 0, t1, t2, -1, 0)
		r.setup = append(r.setup, t2.Sub(t0))
		x = y
	}
	return x, nil
}

func newResult(cfg config, clients int) *result {
	r := &result{}
	if cfg.trace {
		r.tracer = newTracer(clients)
	}
	return r
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func snap(st burtree.Stats, cs []burtree.ConcurrencyStats, loads []burtree.ShardLoad, epoch uint64) snapshot {
	s := snapshot{st: st, cs: sumConcurrency(cs), loads: loads, epoch: epoch, proc: readProcIO(), cpu: readCPUTimes()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// finishHeap records live_heap_mb: the heap left after forced GCs once
// the inputs and latency samples are released, so it is the index's
// memory plus the benchmark's fixed-size oracle. The second GC empties
// what sync.Pools kept through the first.
func (r *result) finishHeap() {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.liveHeap = mem.HeapAlloc
}

// paperBufferPages is 1% of the tree's pages, the paper's buffer
// setting, estimated before the tree exists from the fanout and the
// 66% bulk-load fill.
func paperBufferPages(objects int) int {
	f := float64(rtree.MaxEntriesFor(pageSize, false))
	leaves := float64(objects) / (f * 0.66)
	return max(1, int(math.Round(0.01*leaves*f/(f-1))))
}

// paper-uniform: Index, one client, a closed loop of 19 Update calls per
// query; every fifth query is a 10-NN Nearest, the others window Counts.
func runPaperUniform(cfg config) (*result, error) {
	const (
		updatesPerQuery = 19
		knnEvery        = 5
		warmOps         = 20_000
		moveRate        = 90_000 // moves/s the inputs cover
	)
	in := makeInputs(workload.Spec{NumObjects: cfg.objects, Seed: cfg.seed}, moveBudget(cfg, warmOps, moveRate))
	r := newResult(cfg, 1)
	r.bracketQueries = true
	tr := r.tracer
	opts := burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		PageSize:        pageSize,
		BufferPages:     paperBufferPages(cfg.objects),
		ExpectedObjects: cfg.objects,
	}
	x, err := setUp(cfg, r, tr, "Index", in, func() (*burtree.Index, error) { return burtree.Open(opts) })
	if err != nil {
		return nil, err
	}
	defer x.Close()

	updID, countID, nearID := spanOf("Index.Update"), spanOf("Index.Count"), spanOf("Index.Nearest")
	log := tr.log(0)
	pages := func() int64 { s := x.Stats(); return s.DiskReads + s.DiskWrites }
	upd := make([]time.Duration, 0, len(in.moves))
	var win, knn []time.Duration
	mi, qi := 0, 0
	// op runs the i-th call of the closed loop; timed calls are measured.
	op := func(i int, timed bool) (time.Time, error) {
		t0 := time.Now()
		traced := timed && tr.on(t0)
		isQuery := i%(updatesPerQuery+1) == updatesPerQuery
		var p0 int64
		if timed && (isQuery || traced) {
			p0 = pages()
		}
		if isQuery {
			q := qi
			qi++
			id := countID
			var err error
			if q%knnEvery == knnEvery-1 {
				id = nearID
				_, err = x.Nearest(in.points[q%queryPool], probeK)
			} else {
				_, err = x.Count(in.windows[q%queryPool])
			}
			t1 := time.Now()
			if err != nil || !timed {
				return t1, err
			}
			r.attempted++
			p := pages() - p0
			r.queryPages += p
			if id == nearID {
				knn = append(knn, t1.Sub(t0))
				r.knns++
			} else {
				win = append(win, t1.Sub(t0))
				r.windows++
			}
			if traced {
				log.record(tr, id, 0, t0, t1, p, 0)
			}
			return t1, nil
		}
		if mi == len(in.moves) {
			return t0, errExhausted
		}
		c := in.moves[mi]
		mi++
		err := x.Update(c.ID, c.To)
		t1 := time.Now()
		if err != nil || !timed {
			return t1, err
		}
		r.attempted++
		r.moves++
		upd = append(upd, t1.Sub(t0))
		log.count(traced, 1)
		if traced {
			log.record(tr, updID, 0, t0, t1, pages()-p0, 1)
		}
		return t1, nil
	}

	i := 0
	for ; i < warmOps; i++ {
		if _, err := op(i, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	r.before = snap(x.Stats(), nil, nil, 0)
	start := time.Now()
	tr.begin(start)
	deadline := start.Add(seconds(cfg.seconds))
	end := start
	for ; end.Before(deadline); i++ {
		t, err := op(i, true)
		if errors.Is(err, errExhausted) {
			r.exhausted = true
			break
		}
		if err != nil {
			r.failed++
			return nil, fmt.Errorf("call %d: %w", i, err)
		}
		end = t
	}
	r.elapsed = end.Sub(start)
	tr.finish(end)
	r.after = snap(x.Stats(), nil, nil, 0)
	r.updatePages = r.after.st.DiskReads + r.after.st.DiskWrites - r.before.st.DiskReads - r.before.st.DiskWrites - r.queryPages

	want := oracle(in, in.moves[:mi])
	r.update, r.window, r.knn = summarize(upd), summarize(win), summarize(knn)
	probes := in.probes
	in, upd, win, knn = nil, nil, nil, nil
	r.finishHeap()
	if err := checkIndex(x, want, probes); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return r, nil
}

// concurrent-batch: ConcurrentIndex with the whole tree in its buffer.
// Two clients each own half of the ids and run a closed loop of
// 256-move UpdateBatch calls, each followed by two window Counts and two
// 10-NN Nearests.
func runConcurrentBatch(cfg config) (*result, error) {
	const (
		clients      = 2
		batch        = 256
		readsPerKind = 2 // window Counts and 10-NN Nearests after each batch
		warmBatches  = 20
		moveRate     = 60_000 // moves/s the inputs cover, over both clients
	)
	in := makeInputs(workload.Spec{NumObjects: cfg.objects, Seed: cfg.seed}, moveBudget(cfg, clients*batch*warmBatches, moveRate))
	streams := make([][]burtree.Change, clients)
	for c := range streams {
		streams[c] = make([]burtree.Change, 0, len(in.moves)/clients+len(in.moves)/10)
	}
	for _, c := range in.moves {
		streams[c.ID%clients] = append(streams[c.ID%clients], c)
	}
	in.moves = nil
	r := newResult(cfg, clients)
	r.batched, r.concurrent = true, true
	tr := r.tracer
	opts := burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		PageSize:        pageSize,
		BufferPages:     16_384,
		ExpectedObjects: cfg.objects,
	}
	x, err := setUp(cfg, r, tr, "ConcurrentIndex", in, func() (*burtree.ConcurrentIndex, error) { return burtree.OpenConcurrent(opts) })
	if err != nil {
		return nil, err
	}
	defer x.Close()

	updID, countID, nearID := spanOf("ConcurrentIndex.UpdateBatch"), spanOf("ConcurrentIndex.Count"), spanOf("ConcurrentIndex.Nearest")
	type client struct {
		pos, q        int
		upd, win, knn []time.Duration
		batch         batchTotals
		attempted     int64
		end           time.Time
		err           error
	}
	cs := make([]client, clients)
	// round runs one UpdateBatch and the reads that follow it for client c.
	round := func(c int, timed bool) (time.Time, error) {
		s, log := &cs[c], tr.log(c)
		if s.pos+batch > len(streams[c]) {
			return time.Now(), errExhausted
		}
		b := streams[c][s.pos : s.pos+batch]
		t0 := time.Now()
		traced := timed && tr.on(t0)
		res, err := x.UpdateBatch(b)
		t1 := time.Now()
		if err != nil {
			return t1, fmt.Errorf("update batch: %w", err)
		}
		s.pos += batch
		if timed {
			applied := int64(res.Applied)
			s.attempted++
			s.upd = append(s.upd, t1.Sub(t0))
			s.batch.add(len(b), res)
			log.count(traced, applied)
			if traced {
				log.record(tr, updID, c, t0, t1, int64(res.PageIO), applied)
			}
		}
		t4 := t1
		for range readsPerKind {
			q := s.q*clients + c
			s.q++
			t2 := time.Now()
			_, err = x.Count(in.windows[q%queryPool])
			t3 := time.Now()
			if err != nil {
				return t3, fmt.Errorf("count: %w", err)
			}
			_, err = x.Nearest(in.points[q%queryPool], probeK)
			t4 = time.Now()
			if err != nil {
				return t4, fmt.Errorf("nearest: %w", err)
			}
			if timed {
				s.attempted += 2
				s.win = append(s.win, t3.Sub(t2))
				s.knn = append(s.knn, t4.Sub(t3))
				if tr.on(t2) {
					log.record(tr, countID, c, t2, t3, -1, 0)
					log.record(tr, nearID, c, t3, t4, -1, 0)
				}
			}
		}
		return t4, nil
	}

	var stop, exhausted atomic.Bool
	var warm, done sync.WaitGroup
	startCh := make(chan struct{})
	var start, deadline time.Time
	warm.Add(clients)
	done.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			s := &cs[c]
			s.upd = make([]time.Duration, 0, len(streams[c])/batch)
			s.win = make([]time.Duration, 0, readsPerKind*len(streams[c])/batch)
			s.knn = make([]time.Duration, 0, readsPerKind*len(streams[c])/batch)
			for i := 0; i < warmBatches && s.err == nil; i++ {
				_, s.err = round(c, false)
			}
			warm.Done()
			<-startCh
			for s.err == nil && !stop.Load() {
				t, err := round(c, true)
				if errors.Is(err, errExhausted) {
					exhausted.Store(true)
					break
				}
				s.end, s.err = t, err
				if !s.end.Before(deadline) {
					break
				}
			}
			if s.err != nil {
				stop.Store(true)
			}
		}(c)
	}
	warm.Wait()
	runtime.GC()
	st, cst := x.Stats()
	r.before = snap(st, []burtree.ConcurrencyStats{cst}, nil, 0)
	start = time.Now()
	deadline = start.Add(seconds(cfg.seconds))
	tr.begin(start)
	close(startCh)
	done.Wait()

	end := start
	var upd, win, knn []time.Duration
	for c := range cs {
		s := &cs[c]
		if s.err != nil {
			r.failed++
			return nil, fmt.Errorf("client %d: %w", c, s.err)
		}
		end = maxTime(end, s.end)
		r.attempted += s.attempted
		r.batch.merge(s.batch)
		upd, win, knn = append(upd, s.upd...), append(win, s.win...), append(knn, s.knn...)
	}
	r.exhausted = exhausted.Load()
	r.elapsed = end.Sub(start)
	tr.finish(end)
	st, cst = x.Stats()
	r.after = snap(st, []burtree.ConcurrencyStats{cst}, nil, 0)
	r.moves, r.windows, r.knns = r.batch.applied, int64(len(win)), int64(len(knn))
	r.updatePages = r.batch.pageIO

	want := oracle(in, streams[0][:cs[0].pos], streams[1][:cs[1].pos])
	r.update, r.window, r.knn = summarize(upd), summarize(win), summarize(knn)
	probes := in.probes
	in, streams, cs, upd, win, knn = nil, nil, nil, nil, nil, nil
	r.finishHeap()
	if err := checkIndex(x, want, probes); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return r, nil
}

// sharded-durable-skew: ShardedIndex over four Hilbert shards with a
// group-commit write-ahead log and the memtable, under Zipfian object
// choice. A writer runs a closed loop of 64-move UpdateBatch calls with
// a Rebalance every 200 batches and a Checkpoint every 2,000; a reader
// runs an open loop of 400 queries/s, four window Counts to one 10-NN
// Nearest, each timed from its scheduled send time.
func runShardedDurableSkew(cfg config) (*result, error) {
	const (
		batch           = 64
		rebalanceEvery  = 200
		checkpointEvery = 2000
		queryRate       = 200 // queries/s
		knnEvery        = 5
		warmBatches     = 200
		warmQueries     = 100
		moveRate        = 100_000 // moves/s the inputs cover
	)
	in := makeInputs(workload.Spec{NumObjects: cfg.objects, Seed: cfg.seed, ZipfTheta: 0.9}, moveBudget(cfg, warmBatches*batch, moveRate))
	r := newResult(cfg, 2)
	r.batched, r.concurrent, r.sharded = true, true, true
	tr := r.tracer

	root := filepath.Join(cfg.workdir, "durable")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	opts := burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		PageSize:        pageSize,
		BufferPages:     4096,
		ExpectedObjects: cfg.objects,
		Durability:      burtree.Durability{Mode: burtree.DurabilityGroup},
		Memtable:        burtree.Memtable{Enabled: true},
	}
	sopts := burtree.ShardOptions{Shards: 4, Partition: burtree.ShardHilbert}
	x, err := setUp(cfg, r, tr, "ShardedIndex", in, func() (*burtree.ShardedIndex, error) {
		dir, err := os.MkdirTemp(root, cfg.workload+"-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		opts.Durability.Dir = dir
		return burtree.OpenSharded(opts, sopts)
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			x.Close()
		}
	}()

	updID, rebID, cpID := spanOf("ShardedIndex.UpdateBatch"), spanOf("ShardedIndex.Rebalance"), spanOf("ShardedIndex.Checkpoint")
	countID, nearID := spanOf("ShardedIndex.Count"), spanOf("ShardedIndex.Nearest")
	query := func(k int) (spanID, error) {
		if k%knnEvery == knnEvery-1 {
			_, err := x.Nearest(in.points[k%queryPool], probeK)
			return nearID, err
		}
		_, err := x.Count(in.windows[k%queryPool])
		return countID, err
	}
	pos := 0
	for b := 0; b < warmBatches; b++ {
		if _, err := x.UpdateBatch(in.moves[pos : pos+batch]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		pos += batch
	}
	for k := 0; k < warmQueries; k++ {
		if _, err := query(k); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	st, cst := x.Stats()
	r.before = snap(st, cst, x.ShardLoads(), x.RouterEpoch())

	var stop atomic.Bool
	var wg sync.WaitGroup
	var writerErr, readerErr error
	var end time.Time
	upd := make([]time.Duration, 0, (len(in.moves)-pos)/batch)
	readerCap := int(queryRate*cfg.seconds) + 1
	win, knn := make([]time.Duration, 0, readerCap), make([]time.Duration, 0, readerCap/knnEvery+1)
	lag := make([]time.Duration, 0, readerCap)
	var readerAttempted int64
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	tr.begin(start)
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		log := tr.log(0)
		now := start
		for b := 0; now.Before(deadline) && !stop.Load(); b++ {
			if pos+batch > len(in.moves) {
				r.exhausted = true
				break
			}
			chunk := in.moves[pos : pos+batch]
			t0 := time.Now()
			traced := tr.on(t0)
			res, err := x.UpdateBatch(chunk)
			now = time.Now()
			r.attempted++
			if err != nil {
				writerErr = fmt.Errorf("update batch: %w", err)
				break
			}
			pos += batch
			applied := int64(res.Applied + res.Combined)
			upd = append(upd, now.Sub(t0))
			r.batch.add(len(chunk), res)
			log.count(traced, applied)
			if traced {
				log.record(tr, updID, 0, t0, now, int64(res.PageIO), applied)
			}
			if (b+1)%rebalanceEvery == 0 {
				t0 = now
				moved, err := x.Rebalance()
				now = time.Now()
				r.attempted++
				if err != nil {
					writerErr = fmt.Errorf("rebalance: %w", err)
					break
				}
				r.moved += int64(moved)
				r.rebalance = append(r.rebalance, now.Sub(t0))
				if tr.on(t0) {
					log.record(tr, rebID, 0, t0, now, -1, 0)
				}
			}
			if (b+1)%checkpointEvery == 0 {
				t0 = now
				err := x.Checkpoint()
				now = time.Now()
				r.attempted++
				if err != nil {
					writerErr = fmt.Errorf("checkpoint: %w", err)
					break
				}
				r.checkpoint = append(r.checkpoint, now.Sub(t0))
				if tr.on(t0) {
					log.record(tr, cpID, 0, t0, now, -1, 0)
				}
			}
		}
		end = now
		if writerErr != nil {
			stop.Store(true)
		}
	}()
	go func() { // reader: open loop
		defer wg.Done()
		log := tr.log(1)
		interval := time.Second / queryRate
		for k := 0; !stop.Load(); k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			id, err := query(k)
			t1 := time.Now()
			readerAttempted++
			if err != nil {
				readerErr = err
				stop.Store(true)
				break
			}
			lag = append(lag, t0.Sub(due))
			if id == nearID {
				knn = append(knn, t1.Sub(due))
			} else {
				win = append(win, t1.Sub(due))
			}
			if tr.on(t0) {
				log.record(tr, id, 1, t0, t1, -1, 0)
			}
		}
	}()
	wg.Wait()
	r.attempted += readerAttempted
	if err := errors.Join(writerErr, readerErr); err != nil {
		r.failed++
		return nil, err
	}
	r.elapsed = end.Sub(start)
	tr.finish(end)
	st, cst = x.Stats()
	r.after = snap(st, cst, x.ShardLoads(), x.RouterEpoch())
	r.moves, r.windows, r.knns = r.batch.applied, int64(len(win)), int64(len(knn))
	r.updatePages = r.batch.pageIO

	want := oracle(in, in.moves[:pos])
	r.update, r.window, r.knn, r.readerLag = summarize(upd), summarize(win), summarize(knn), summarize(lag)
	probes := in.probes
	in, upd, win, knn, lag = nil, nil, nil, nil, nil
	r.finishHeap()
	if err := checkIndex(x, want, probes); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	// Acknowledged state must survive a close and recovery exactly.
	closed = true
	if err := x.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	y, err := burtree.RecoverSharded(opts, sopts)
	r.recovery = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	defer y.Close()
	if err := checkIndex(y, want, probes); err != nil {
		return nil, fmt.Errorf("correctness after recovery: %w", err)
	}
	return r, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
