// Command perfbench is the repository's benchmark: it drives the
// simulator's public entry points (harness.Execute, harness.RunCache and
// the fabric coordinator with loopback workers) on one workload, checks
// the results, and prints every metric with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run first repeats the untraced measurement for half
// the time, then measures the other half with spans, a CPU profile and
// runtime counters, and reports the per-layer metrics and the tracing
// overhead. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper_fig5 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bluegs/internal/fabric"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// minSamples is the fewest per-run latencies a phase collects: enough
// for p90 to have minBeyond samples above it.
const minSamples = 100

// phaseLimit stops a phase that cannot reach its sample count, so even a
// traced run, which has two phases, ends well inside 180 s.
const phaseLimit = 60 * time.Second

var workloadNames = []string{"paper_fig5", "scatternet_e9", "cache_replay", "fabric_cold"}

// newWorkload builds a workload from its name and seed. Horizons and
// replication counts are chosen so one pass takes 0.1–1 s on two cores
// and even the half-length phases of a traced run complete well over
// minSamples runs.
func newWorkload(name string, seed int64, workers int, workDir string) (w workload, passName string, err error) {
	switch name {
	case "paper_fig5":
		return &inproc{workers: workers, gsFloor: true, build: func() []harness.Run {
			return fig5Grid(30*time.Second, seed, 4)
		}}, "harness.Execute", nil
	case "scatternet_e9":
		return &inproc{workers: workers, build: func() []harness.Run {
			return scatternetGrid(5*time.Second, seed, 4, 16, 8, 4)
		}}, "harness.Execute", nil
	case "cache_replay":
		return &inproc{workers: workers, cached: true, workDir: workDir, build: func() []harness.Run {
			return reindex(append(fig5Grid(time.Second, seed, 4), scatternetGrid(2*time.Second, seed, 8, 16)...))
		}}, "harness.Execute", nil
	case "fabric_cold":
		const reps = 10
		var cells []string
		for _, t := range fig5Targets() {
			cells = append(cells, t.String())
		}
		return &fabricWL{workers: workers, workDir: workDir,
			meta: fabric.JournalMeta{Grid: "fig5", Cells: cells, Duration: time.Second, Seed: seed, Replications: reps},
			build: func() []harness.Run {
				return fig5Grid(time.Second, seed, reps)
			}}, "Coordinator.Execute", nil
	}
	return nil, "", fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// phase is the outcome of a timed sequence of passes.
type phase struct {
	passes            int
	wall              time.Duration
	simSeconds        float64
	rates             []float64 // per-pass simulated seconds per host second
	latencies         []float64
	busy, simBusy     time.Duration
	events            uint64
	attempted, failed int
	failures          []string
	digests           []string            // reference digests, run order
	first             []harness.RunResult // first pass, for model statistics
}

// fail counts n failed runs under one reason.
func (p *phase) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// runPhase executes passes until seconds of pass time and minSamples run
// latencies are collected (and at least two passes, so repetition is
// checked). Every run is gated: it must succeed, pass the workload's own
// check, and reproduce the reference digest of its run index.
func runPhase(w workload, seconds float64, tr *tracer, passName string, ref []string) phase {
	p := phase{digests: ref}
	var root int64
	rootStart := time.Now()
	if tr != nil {
		root = tr.newID()
	}
	grid := w.runs()
	for k := 1; ; k++ {
		// Each pass starts from a collected heap, so the garbage of one
		// pass is not collected on the next one's time.
		runtime.GC()
		out, err := w.pass(tr, root, tr.newID(), k)
		p.passes++
		p.attempted += len(grid)
		if err != nil {
			p.fail(len(grid), "pass %d: %v", k, err)
		} else {
			p.wall += out.wall
			p.latencies = append(p.latencies, out.latencies...)
			p.busy += out.busy
			if p.first == nil {
				p.first = out.results
			}
			before := p.simSeconds
			p.gate(w, out.results, k)
			p.rates = append(p.rates, ratio(p.simSeconds-before, out.wall.Seconds()))
		}
		elapsed := time.Since(rootStart)
		if (p.wall.Seconds() >= seconds && len(p.latencies) >= minSamples && p.passes >= 2) || elapsed > phaseLimit {
			break
		}
	}
	tr.record(root, 0, "workload:"+passName, "", rootStart, time.Now())
	return p
}

func (p *phase) gate(w workload, results []harness.RunResult, k int) {
	if len(results) != len(w.runs()) {
		p.fail(len(w.runs()), "pass %d: %d results for %d runs", k, len(results), len(w.runs()))
		return
	}
	fresh := p.digests == nil
	if fresh {
		p.digests = make([]string, len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Result == nil {
			p.fail(1, "pass %d run %d: %v", k, i, r.Err)
			continue
		}
		d := digest(r.Result)
		if fresh {
			p.digests[i] = d
		}
		if err := w.check(r); err != nil {
			p.fail(1, "pass %d: %v", k, err)
			continue
		}
		if d != p.digests[i] {
			p.fail(1, "pass %d run %d (cell %s rep %d): digest %s, reference %s", k, i, r.Run.Cell, r.Run.Rep, d, p.digests[i])
			continue
		}
		p.simSeconds += r.Run.Spec.Duration.Seconds()
		p.events += r.Result.Events
		if !r.CacheHit {
			p.simBusy += r.Wall
		}
	}
}

// modelStats are the deterministic model outputs of one pass.
type modelStats struct {
	gsFlows, violating     int
	usefulSlots, busySlots int64
	requests, accepted     int
}

func model(results []harness.RunResult) modelStats {
	var m modelStats
	for _, r := range results {
		if r.Result == nil {
			continue
		}
		for _, f := range r.Result.Flows {
			if f.Class != piconet.Guaranteed || f.Bound <= 0 {
				continue
			}
			m.gsFlows++
			if f.DelayMax > f.Bound {
				m.violating++
			}
		}
		s := r.Result.Slots
		m.usefulSlots += s.GSData + s.BEData
		m.busySlots += s.Total - s.Idle
		for _, a := range r.Result.Admissions {
			if a.Op == scenario.OpAddGS {
				m.requests++
				if a.Accepted {
					m.accepted++
				}
			}
		}
	}
	return m
}

func eventsOf(r harness.RunResult) uint64 {
	if r.Result == nil {
		return 0
	}
	return r.Result.Events
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the specs' seeds derive from it")
	seconds := flag.Int("seconds", 10, "measured pass time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	correct, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its result; it reports whether
// every run passed the gate.
func run(name string, seed int64, seconds int, traced bool) (bool, error) {
	if seconds < 1 {
		return false, errors.New("-seconds must be at least 1")
	}
	if seed == 0 {
		seed = 1 // scenario seeds treat 0 as "default"
	}
	workers := runtime.NumCPU()
	workDir := filepath.Join(".bench_work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return false, err
	}
	defer func() {
		os.RemoveAll(workDir)
		os.Remove(filepath.Dir(workDir)) // only when no other run uses it
	}()
	w, passName, err := newWorkload(name, seed, workers, workDir)
	if err != nil {
		return false, err
	}
	defer w.close()

	fabricWorkers := 0
	if name == "fabric_cold" {
		fabricWorkers = workers
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s harness_workers=%d fabric_workers=%d kernel_workers=default\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, workers, fabricWorkers)

	setupS, setupReps, err := measureSetup(w)
	if err != nil {
		return false, fmt.Errorf("set-up: %w", err)
	}
	fmt.Printf("setup reps=%d median=%.6fs\n", setupReps, setupS)

	res := result{Metrics: make(map[string]metric)}
	if !traced {
		a := runPhase(w, float64(seconds), nil, passName, w.setupDigests())
		report("untraced", a)
		if err := endToEnd(res.Metrics, a, setupS); err != nil {
			a.fail(1, "%v", err)
		}
		res.Attempted, res.Failed = a.attempted, a.failed
	} else {
		a := runPhase(w, float64(seconds)/2, nil, passName, w.setupDigests())
		report("untraced", a)
		*w.layer() = layerStats{setupPutMs: w.layer().setupPutMs}
		tr := newTracer()
		b, shares, rt, err := tracedPhase(w, float64(seconds)/2, tr, passName, a.digests, name, seed)
		if err != nil {
			return false, err
		}
		report("traced", b)
		perLayer(res.Metrics, w, passName, a, b, tr.snapshot(), shares, rt, workers, fabricWorkers)
		res.Attempted, res.Failed = a.attempted+b.attempted, a.failed+b.failed
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %s=%.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("failed_frac=%g attempted=%d failed=%d\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// measureSetup repeats the workload's set-up and returns the median.
// Tiny set-ups (spec generation alone) repeat until 0.2 s were spent in
// them, so the median is not one timer tick; heavy ones repeat five
// times, and no workload spends more than 2 s on repeats.
func measureSetup(w workload) (float64, int, error) {
	var ds []float64
	var spent time.Duration
	begin := time.Now()
	for len(ds) < 5 || (spent < 200*time.Millisecond && time.Since(begin) < 2*time.Second && len(ds) < 1000) {
		if len(ds) > 0 {
			w.reset()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		spent += d
		ds = append(ds, d.Seconds())
	}
	return median(ds), len(ds), nil
}

// report prints a phase's counts, model statistics and digests, so two
// commits can be compared exactly.
func report(label string, p phase) {
	fmt.Printf("phase %s passes=%d runs=%d wall=%.3fs samples=%d attempted=%d failed=%d pass_rate_min=%.4g median=%.4g max=%.4g\n",
		label, p.passes, len(p.first), p.wall.Seconds(), len(p.latencies), p.attempted, p.failed,
		minOf(p.rates), median(p.rates), maxOf(p.rates))
	for _, f := range p.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	m := model(p.first)
	fmt.Printf("model gs_flows=%d violating=%d bound_violation_frac=%.6f slot_useful_ratio=%.6f admission_requests=%d accepted=%d events_per_pass=%d\n",
		m.gsFlows, m.violating, ratio(float64(m.violating), float64(m.gsFlows)),
		ratio(float64(m.usefulSlots), float64(m.busySlots)), m.requests, m.accepted, p.events/uint64(max(p.passes, 1)))
	if label != "untraced" {
		return
	}
	fmt.Printf("digest set=%s runs=%d\n", setDigest(p.digests), len(p.digests))
	for i, r := range p.first {
		if i < len(p.digests) {
			rm := model([]harness.RunResult{r})
			fmt.Printf("digest run=%d cell=%s rep=%d seed=%d events=%d violating=%d/%d %s\n", i, r.Run.Cell, r.Run.Rep,
				r.Run.Spec.Seed, eventsOf(r), rm.violating, rm.gsFlows, p.digests[i])
		}
	}
}

// endToEnd fills the untraced metrics.
func endToEnd(m map[string]metric, p phase, setupS float64) error {
	p50, err := percentile(p.latencies, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(p.latencies, 0.9)
	if err != nil {
		return err
	}
	mod := model(p.first)
	m["sim_s_per_wall_s"] = metric{median(p.rates), "s/s"}
	m["run_ms_p50"] = metric{p50, "ms"}
	m["run_ms_p90"] = metric{p90, "ms"}
	m["setup_s"] = metric{setupS, "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["ok_frac"] = metric{1 - ratio(float64(p.failed), float64(p.attempted)), "ratio"}
	m["bound_met_frac"] = metric{1 - ratio(float64(mod.violating), float64(mod.gsFlows)), "ratio"}
	fmt.Printf("latency samples=%d p50=%.4fms p90=%.4fms\n", len(p.latencies), p50, p90)
	return nil
}

// tracedPhase measures a phase with spans, a CPU profile and runtime
// counters, then writes the spans and the profile under .bench_out.
func tracedPhase(w workload, seconds float64, tr *tracer, passName string, ref []string,
	name string, seed int64) (phase, map[string]float64, runtimeSample, error) {
	outDir := ".bench_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return phase{}, nil, runtimeSample{}, err
	}
	b := runPhase(w, seconds, tr, passName, ref)
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := prof.Close(); err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	delta := runtimeSample{
		allocBytes: after.allocBytes - before.allocBytes,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
		idle:       after.idle - before.idle,
	}
	spans, err := json.Marshal(tr.snapshot())
	if err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	shares, err := cpuShares(base + ".cpu.pprof")
	if err != nil {
		return phase{}, nil, runtimeSample{}, err
	}
	fmt.Printf("trace spans=%d file=%s.spans.json profile=%s.cpu.pprof\n", len(tr.snapshot()), base, base)
	return b, shares, delta, nil
}

// layerPct is a per-layer percentile: 0 where the layer was not
// exercised or too few samples exist.
func layerPct(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// perLayer fills the traced metrics from the traced phase b; a is the
// untraced phase of the same process, the base of the overhead.
func perLayer(m map[string]metric, w workload, passName string, a, b phase, spans []span, shares map[string]float64,
	rt runtimeSample, workers, fabricWorkers int) {
	lay := w.layer()
	mod := model(b.first)
	m["sim.events_per_sim_s"] = metric{ratio(float64(b.events), b.simSeconds), "1/s"}
	m["sim.ns_per_event"] = metric{0, "ns"}
	if b.simBusy > 0 {
		m["sim.ns_per_event"] = metric{ratio(float64(b.simBusy), float64(b.events)), "ns"}
	}
	for _, pkg := range []string{"sim", "baseband", "piconet", "core", "poller", "radio", "traffic",
		"segmentation", "admission", "scenario", "harness", "fabric", "codec"} {
		m[pkg+".cpu_share"] = metric{shares[pkg], "ratio"}
	}
	m["runtime.gc_cpu_share"] = metric{ratio(rt.gcCPU, rt.totalCPU-rt.idle), "ratio"}
	m["runtime.alloc_bytes_per_sim_s"] = metric{ratio(float64(rt.allocBytes), b.simSeconds), "B/s"}
	slots := workers
	if fabricWorkers > 0 {
		slots = fabricWorkers
	}
	m["harness.parallel_efficiency"] = metric{ratio(float64(b.busy), float64(b.wall)*float64(slots)), "ratio"}
	m["piconet.slot_useful_ratio"] = metric{ratio(float64(mod.usefulSlots), float64(mod.busySlots)), "ratio"}
	m["admission.requests"] = metric{float64(mod.requests), "count"}
	m["admission.accept_ratio"] = metric{ratio(float64(mod.accepted), float64(mod.requests)), "ratio"}
	m["cache.hit_ratio"] = metric{ratio(float64(lay.hits), float64(lay.lookups)), "ratio"}
	m["cache.get_ms_p50"] = metric{layerPct(lay.getMs, 0.5), "ms"}
	m["cache.get_ms_p90"] = metric{layerPct(lay.getMs, 0.9), "ms"}
	m["cache.hit_self_ms_p50"] = metric{layerPct(lay.hitSelfMs, 0.5), "ms"}
	puts := lay.putMs
	if len(puts) == 0 {
		puts = lay.setupPutMs
	}
	m["cache.put_ms_p50"] = metric{layerPct(puts, 0.5), "ms"}
	m["cache.entry_bytes_mean"] = metric{mean(lay.entryBytes), "B"}
	m["scenario.cache_key_us_p50"] = metric{cacheKeyUs(w.runs()), "us"}

	f := lay.fabric
	m["fabric.lease_rtt_ms_p50"] = metric{layerPct(f.leaseRTTMs, 0.5), "ms"}
	m["fabric.complete_rtt_ms_p50"] = metric{layerPct(f.completeRTTMs, 0.5), "ms"}
	m["fabric.lease_wait_ratio"] = metric{ratio(float64(f.leaseEmpty), float64(f.leaseRequests)), "ratio"}
	idle := time.Duration(0)
	if fabricWorkers > 0 {
		idle = time.Duration(fabricWorkers)*b.wall - f.leaseBusy
	}
	m["fabric.worker_idle_ms_per_run"] = metric{ratio(ms(idle), float64(f.runs)), "ms"}
	m["fabric.bytes_per_run"] = metric{ratio(float64(f.bytes), float64(f.runs)), "B"}
	m["fabric.runs_per_lease"] = metric{ratio(float64(f.runsLeased), float64(f.leases)), "count"}
	m["fabric.journal_bytes_per_run"] = metric{ratio(float64(f.journalBytes), float64(f.runs)), "B"}

	m["trace.overhead_frac"] = metric{1 - ratio(median(b.rates), median(a.rates)), "ratio"}
	m["trace.pass_self_share"] = metric{selfShare(spans, passName), "ratio"}
	m["trace.run_self_share"] = metric{selfShare(spans, "run"), "ratio"}
}

// cacheKeyUs times harness.CacheKey over the grid's specs and returns the
// median in microseconds.
func cacheKeyUs(runs []harness.Run) float64 {
	var us []float64
	for len(us) < 200 {
		for _, r := range runs {
			start := time.Now()
			harness.CacheKey(harness.DefaultCacheSalt, r.Spec)
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	return median(us)
}
