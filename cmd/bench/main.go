// Command bench measures the simulation kernel's performance envelope and
// writes it to a JSON baseline (BENCH_kernel.json at the repo root), so the
// perf trajectory is tracked in-tree from PR to PR. It runs the same
// workloads as the internal/sim BenchmarkKernel* microbenchmarks plus the
// full paper scenario, via testing.Benchmark, and reports ns/op, allocs/op
// and events/s for each.
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_kernel.json] [-cache-dir DIR]
//
// Besides the kernel workloads it measures the experiment harness with
// its content-addressed run cache cold and warm (harness_sweep_cold /
// harness_sweep_warm), so the cache-replay speedup is tracked alongside
// the simulator itself. -cache-dir points the measurement at a specific
// directory (default: a temp dir); a fresh salt keeps the cold pass cold
// either way. The same sweep also runs through the distributed fabric
// with one and two in-process workers (fabric_sweep_1w /
// fabric_sweep_2w), so the coordination overhead — JSON leases, HTTP
// round trips, gob-encoded result entries — is tracked against the
// in-process harness_sweep_cold row. The paper scenario is measured
// with per-packet and with
// burst-batched traffic generation (paper_scenario_10s vs
// paper_scenario_10s_batch — the batching before/after), and the
// scatternet_<N>pn rows track how sim_s/wall_s scales with the number
// of interference-coupled piconets, each its own kernel shard. Read
// every row against num_cpu and gomaxprocs.
//
// The committed baseline is produced by CI hardware (see the bench job in
// .github/workflows/ci.yml); numbers from other machines are comparable
// only against their own history.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"bluegs/internal/fabric"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/sim"
	"bluegs/internal/sim/benchwork"
)

// Result is one workload's measurement in the JSON baseline.
type Result struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SimSecPerWallSec is set for scenario workloads only: simulated
	// seconds per wall-clock second.
	SimSecPerWallSec float64 `json:"sim_s_per_wall_s,omitempty"`
}

// Baseline is the file schema.
type Baseline struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

// measure converts a testing.BenchmarkResult into a Result row, treating
// one op as one fired event.
func measure(name string, f func(b *testing.B)) Result {
	r := testing.Benchmark(f)
	out := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.T > 0 {
		out.EventsPerSec = float64(r.N) / r.T.Seconds()
	}
	return out
}

// measureSpec runs one scenario spec repeatedly and reports simulation
// throughput per wall second. minGSKbps guards against silently measuring
// a broken simulation.
func measureSpec(name string, build func() scenario.Spec, simulated time.Duration, minGSKbps float64) Result {
	var events uint64
	var ops int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		events, ops = 0, b.N
		for i := 0; i < b.N; i++ {
			spec := build()
			spec.Duration = simulated
			res, err := scenario.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.TotalKbps(piconet.Guaranteed) < minGSKbps {
				b.Fatal("implausible result")
			}
			events += res.Events
		}
	})
	out := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.T > 0 && ops > 0 {
		out.EventsPerSec = float64(events) / r.T.Seconds()
		out.SimSecPerWallSec = simulated.Seconds() * float64(ops) / r.T.Seconds()
	}
	return out
}

// measureScenario runs the full Fig. 4 paper piconet; batch toggles the
// burst-batched traffic generation (the before/after pair in the
// baseline).
func measureScenario(simulated time.Duration, batch bool) Result {
	name := fmt.Sprintf("paper_scenario_%ds", int(simulated.Seconds()))
	if batch {
		name += "_batch"
	}
	return measureSpec(name, func() scenario.Spec {
		spec := scenario.Paper(38 * time.Millisecond)
		spec.BatchTraffic = batch
		return spec
	}, simulated, 200)
}

// measureScatternet runs N interference-coupled piconets — one kernel
// shard per piconet — and reports how simulation throughput scales with
// the piconet count.
func measureScatternet(piconets int, simulated time.Duration) Result {
	name := fmt.Sprintf("scatternet_%dpn_%ds", piconets, int(simulated.Seconds()))
	return measureSpec(name, func() scenario.Spec {
		spec := scenario.Scatternet(scenario.ScatternetConfig{Piconets: piconets})
		spec.BatchTraffic = true
		return spec
	}, simulated, 100*float64(piconets))
}

// measureSweep runs a small Fig. 5 sweep through the harness twice
// against one run cache and reports the cold (simulating and storing)
// and warm (pure cache replay) passes. The salt is unique per invocation
// so the first pass is genuinely cold even on a reused directory.
func measureSweep(cacheDir string) (cold, warm Result, err error) {
	dir := cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "bluegs-bench-cache-*")
		if err != nil {
			return cold, warm, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cache, err := harness.NewRunCache(harness.CacheConfig{
		Dir:  dir,
		Salt: fmt.Sprintf("bench-%d", time.Now().UnixNano()),
	})
	if err != nil {
		return cold, warm, err
	}
	const simulated = 5 * time.Second
	sw := harness.Fig5Sweep(
		harness.SweepConfig{Duration: simulated, Seed: 1, Replications: 2},
		[]time.Duration{30 * time.Millisecond, 38 * time.Millisecond, 46 * time.Millisecond})
	pass := func(name string) (Result, error) {
		start := time.Now()
		results, err := harness.Execute(sw.Runs, harness.Options{Cache: cache})
		if err != nil {
			return Result{}, err
		}
		wall := time.Since(start)
		var events uint64
		for _, r := range results {
			events += r.Result.Events
		}
		out := Result{Name: name, NsPerOp: float64(wall.Nanoseconds())}
		if wall > 0 {
			out.EventsPerSec = float64(events) / wall.Seconds()
			out.SimSecPerWallSec = simulated.Seconds() * float64(len(results)) / wall.Seconds()
		}
		return out, nil
	}
	if cold, err = pass("harness_sweep_cold"); err != nil {
		return cold, warm, err
	}
	warm, err = pass("harness_sweep_warm")
	return cold, warm, err
}

// measureFabric runs the measureSweep grid through an in-process fabric
// coordinator with n worker goroutines attached, cacheless so every run
// simulates. Against harness_sweep_cold this row is the distribution
// tax: JSON leases, HTTP round trips and gob-encoded result entries on
// top of the same simulations.
func measureFabric(n int) (Result, error) {
	const simulated = 5 * time.Second
	sw := harness.Fig5Sweep(
		harness.SweepConfig{Duration: simulated, Seed: 1, Replications: 2},
		[]time.Duration{30 * time.Millisecond, 38 * time.Millisecond, 46 * time.Millisecond})
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Grid: "bench"})
	if err != nil {
		return Result{}, err
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: coord.Addr(),
				Name:        fmt.Sprintf("bench-w%d", i),
				Poll:        10 * time.Millisecond,
			})
		}(i)
	}
	start := time.Now()
	results, err := coord.Execute(sw.Runs, harness.Options{})
	wall := time.Since(start)
	cancel()
	wg.Wait()
	if err != nil {
		return Result{}, err
	}
	var events uint64
	for _, r := range results {
		events += r.Result.Events
	}
	out := Result{Name: fmt.Sprintf("fabric_sweep_%dw", n), NsPerOp: float64(wall.Nanoseconds())}
	if wall > 0 {
		out.EventsPerSec = float64(events) / wall.Seconds()
		out.SimSecPerWallSec = simulated.Seconds() * float64(len(results)) / wall.Seconds()
	}
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_kernel.json", "baseline output path (- for stdout)")
	cacheDir := flag.String("cache-dir", "", "run-cache directory for the harness sweep workloads (default: a temp dir)")
	flag.Parse()

	base := Baseline{
		Schema:     "bluegs/bench-kernel/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	base.Benchmarks = append(base.Benchmarks,
		measure("kernel_slot_churn", benchwork.Churn(sim.SlotGrain)),
		measure("kernel_offgrid_churn", benchwork.Churn(benchwork.OffGridInterval)),
		measure("kernel_schedule_cancel", benchwork.ScheduleCancel),
		measure("kernel_deep_heap", benchwork.DeepHeap),
		measure("kernel_same_slot_batch", benchwork.SameSlotBatch),
		measureScenario(10*time.Second, false),
		measureScenario(10*time.Second, true),
		measureScatternet(2, 10*time.Second),
		measureScatternet(4, 10*time.Second),
		measureScatternet(8, 10*time.Second),
	)
	cold, warm, err := measureSweep(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	base.Benchmarks = append(base.Benchmarks, cold, warm)
	for _, n := range []int{1, 2} {
		row, err := measureFabric(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		base.Benchmarks = append(base.Benchmarks, row)
	}

	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, r := range base.Benchmarks {
		fmt.Printf("%-24s %12.1f ns/op %8d allocs/op %14.0f events/s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
	}
	fmt.Println("wrote", *out)
}
