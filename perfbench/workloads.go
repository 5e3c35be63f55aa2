package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// runTimeout bounds any single run; a run that exceeds it fails.
const runTimeout = 60 * time.Second

// fig5Targets are the paper's Fig. 5 delay targets, 30..46 ms.
func fig5Targets() []time.Duration {
	var ts []time.Duration
	for t := 30 * time.Millisecond; t <= 46*time.Millisecond; t += 2 * time.Millisecond {
		ts = append(ts, t)
	}
	return ts
}

// scatternetGrid is the E9/E10 workload: derated scatternets at 4, 8
// and 16 piconets with online GS arrivals.
func scatternetGrid(duration time.Duration, base int64, reps int, counts ...int) []harness.Run {
	cells := make([]string, len(counts))
	for i, n := range counts {
		cells[i] = fmt.Sprintf("%dpn", n)
	}
	byCell := make(map[string]int, len(counts))
	for i, n := range counts {
		byCell[cells[i]] = n
	}
	g := harness.Grid{Name: "scatternet_e9", Cells: cells, Build: func(cell string) scenario.Spec {
		return scenario.Scatternet(scenario.ScatternetConfig{
			Piconets:          byCell[cell],
			OnlineGS:          2,
			InterferenceAware: true,
		})
	}}
	return g.Sweep(harness.SweepConfig{Duration: duration, Seed: base, Replications: reps}).Runs
}

func fig5Grid(duration time.Duration, base int64, reps int) []harness.Run {
	return harness.Fig5Sweep(harness.SweepConfig{Duration: duration, Seed: base, Replications: reps}, fig5Targets()).Runs
}

// reindex renumbers concatenated grids so Index is the run's position.
func reindex(runs []harness.Run) []harness.Run {
	for i := range runs {
		runs[i].Index = i
	}
	return runs
}

// cacheOp is one call into the run cache's backend.
type cacheOp struct {
	put        bool
	key        string
	start, end time.Time
	bytes      int
}

// timedBackend wraps a CacheBackend and logs every Get and Put with its
// host time and entry size. The log is drained by the workload after
// each set-up and pass.
type timedBackend struct {
	inner harness.CacheBackend
	mu    sync.Mutex
	ops   []cacheOp
}

func (b *timedBackend) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := b.inner.Get(key)
	b.log(cacheOp{key: key, start: start, end: time.Now(), bytes: len(data)})
	return data, err
}

func (b *timedBackend) Put(key string, entry []byte) error {
	start := time.Now()
	err := b.inner.Put(key, entry)
	b.log(cacheOp{put: true, key: key, start: start, end: time.Now(), bytes: len(entry)})
	return err
}

func (b *timedBackend) Has(key string) (bool, error) { return b.inner.Has(key) }
func (b *timedBackend) Delete(key string) error      { return b.inner.Delete(key) }

func (b *timedBackend) log(op cacheOp) {
	b.mu.Lock()
	b.ops = append(b.ops, op)
	b.mu.Unlock()
}

func (b *timedBackend) drain() []cacheOp {
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := b.ops
	b.ops = nil
	return ops
}

func newTimedDirCache(dir string) (*harness.RunCache, *timedBackend, error) {
	inner, err := harness.NewDirBackend(dir)
	if err != nil {
		return nil, nil, err
	}
	tb := &timedBackend{inner: inner}
	c, err := harness.NewRunCache(harness.CacheConfig{Backend: tb})
	return c, tb, err
}

// layerStats accumulates per-layer timings at the layer boundaries the
// benchmark wraps. It is reset when the traced phase starts.
type layerStats struct {
	getMs, putMs, entryBytes, hitSelfMs []float64
	// setupPutMs are the puts of cache pre-population, kept across the
	// reset so cache_replay reports its write path.
	setupPutMs    []float64
	lookups, hits int
	fabric        fabricStats
}

func (l *layerStats) addOps(ops []cacheOp) {
	for _, op := range ops {
		d := ms(op.end.Sub(op.start))
		if op.put {
			l.putMs = append(l.putMs, d)
		} else {
			l.getMs = append(l.getMs, d)
		}
		if op.bytes > 0 {
			l.entryBytes = append(l.entryBytes, float64(op.bytes))
		}
	}
}

// passOut is what one execution of a workload's grid returns.
type passOut struct {
	wall      time.Duration
	results   []harness.RunResult
	latencies []float64     // per-run host latency, ms
	busy      time.Duration // summed host time the execution slots were busy
}

// workload is one benchmark input set together with the way it is driven.
type workload interface {
	// setup builds the inputs (spec generation, cache pre-population,
	// coordinator start and worker join); reset undoes one set-up so the
	// next is measured from scratch.
	setup() error
	reset()
	runs() []harness.Run
	// pass executes the grid once. passID is the reserved ID of the
	// pass span, which pass records under root.
	pass(tr *tracer, root, passID int64, k int) (passOut, error)
	// check is the workload's own per-run gate.
	check(res harness.RunResult) error
	// setupDigests are digests the timed phase must reproduce before any
	// pass ran (nil when the first pass sets the reference).
	setupDigests() []string
	layer() *layerStats
	close()
}

// inproc drives the harness in this process: paper_fig5, scatternet_e9
// and cache_replay.
type inproc struct {
	build   func() []harness.Run
	workers int
	// cached workloads pre-populate a disk cache in set-up and replay it
	// through a fresh RunCache each pass.
	cached   bool
	workDir  string
	gsFloor  bool
	grid     []harness.Run
	keyIndex map[string]int
	ref      []string
	setups   int
	lay      layerStats
}

func (w *inproc) runs() []harness.Run    { return w.grid }
func (w *inproc) setupDigests() []string { return w.ref }
func (w *inproc) layer() *layerStats     { return &w.lay }
func (w *inproc) cacheDir() string {
	return filepath.Join(w.workDir, fmt.Sprintf("cache-%d", w.setups))
}
func (w *inproc) close() {}
func (w *inproc) reset() {
	if w.cached {
		os.RemoveAll(w.cacheDir())
	}
}

func (w *inproc) setup() error {
	w.setups++
	w.grid = w.build()
	if !w.cached {
		return nil
	}
	cache, tb, err := newTimedDirCache(w.cacheDir())
	if err != nil {
		return err
	}
	results, err := harness.Execute(w.grid, harness.Options{Workers: w.workers, Timeout: runTimeout, Cache: cache})
	if err != nil {
		return fmt.Errorf("cache pre-population: %w", err)
	}
	w.ref = make([]string, len(results))
	for i, r := range results {
		w.ref[i] = digest(r.Result)
	}
	w.keyIndex = make(map[string]int, len(w.grid))
	for i, r := range w.grid {
		w.keyIndex[cache.Key(r.Spec)] = i
	}
	for _, op := range tb.drain() {
		if op.put {
			w.lay.setupPutMs = append(w.lay.setupPutMs, ms(op.end.Sub(op.start)))
		}
	}
	return nil
}

func (w *inproc) pass(tr *tracer, root, passID int64, k int) (passOut, error) {
	opts := harness.Options{Workers: w.workers, Timeout: runTimeout}
	var tb *timedBackend
	if w.cached {
		var err error
		if opts.Cache, tb, err = newTimedDirCache(w.cacheDir()); err != nil {
			return passOut{}, err
		}
	}
	runSpan := make(map[int]int64)
	if tr != nil {
		opts.OnProgress = func(_, _ int, r harness.RunResult) {
			end := time.Now()
			runSpan[r.Run.Index] = tr.record(0, passID, "run", runID(k, r.Run.Index), end.Add(-r.Wall), end)
		}
	}
	start := time.Now()
	results, _ := harness.Execute(w.grid, opts)
	end := time.Now()
	tr.record(passID, root, "harness.Execute", "", start, end)

	out := passOut{wall: end.Sub(start), results: results}
	for _, r := range results {
		out.latencies = append(out.latencies, ms(r.Wall))
		out.busy += r.Wall
		if w.cached {
			w.lay.lookups++
			if r.CacheHit {
				w.lay.hits++
			}
		}
	}
	if tb != nil {
		ops := tb.drain()
		w.lay.addOps(ops)
		for _, op := range ops {
			i, ok := w.keyIndex[op.key]
			if !ok {
				continue
			}
			name := "cache.get"
			if op.put {
				name = "cache.put"
			} else if results[i].CacheHit {
				w.lay.hitSelfMs = append(w.lay.hitSelfMs, ms(results[i].Wall-op.end.Sub(op.start)))
			}
			tr.record(0, runSpan[i], name, runID(k, i), op.start, op.end)
		}
	}
	return out, nil
}

func (w *inproc) check(r harness.RunResult) error {
	if w.cached && !r.CacheHit {
		return fmt.Errorf("run %d was simulated, not replayed from the cache", r.Run.Index)
	}
	if !w.gsFloor {
		return nil
	}
	if v := r.Result.BoundViolations(); len(v) > 0 {
		return fmt.Errorf("run %d: %d GS flows exceeded their bound", r.Run.Index, len(v))
	}
	for _, g := range r.Run.Spec.GS {
		f, ok := r.Result.FlowByID(g.ID)
		if !ok || f.Class != piconet.Guaranteed {
			return fmt.Errorf("run %d: GS flow %d missing from the result", r.Run.Index, g.ID)
		}
		nominal := float64(g.MinSize+g.MaxSize) / 2 * 8 / g.Interval.Seconds() / 1000
		if f.Kbps < gsFloor*nominal {
			return fmt.Errorf("run %d: GS flow %d delivered %.1f kbps, below %.0f%% of its %.1f kbps",
				r.Run.Index, g.ID, f.Kbps, gsFloor*100, nominal)
		}
	}
	return nil
}

// gsFloor is the share of a paper GS flow's offered rate it must
// deliver: admitted flows are served at their reserved rate, so anything
// far below the offered load means the scheduler lost packets.
const gsFloor = 0.9

func runID(pass, index int) string { return fmt.Sprintf("%d/%d", pass, index) }
