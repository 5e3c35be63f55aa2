// Command btsim runs a Bluetooth Guaranteed Service piconet scenario and
// prints the per-flow report: throughput, delay statistics and delay-bound
// compliance.
//
// Usage:
//
//	btsim [flags]
//
// Examples:
//
//	btsim -target 40ms -duration 530s            # the paper's Fig. 4 setup
//	btsim -mode fixed -target 36ms               # the §3.1 fixed-interval poller
//	btsim -poller round-robin -target 46ms -csv  # RR for best effort, CSV output
//	btsim -list                                  # registered scenario names
//	btsim -scenario churn                        # a registered scenario by name
//	btsim -scenario scatternet                   # 4 FH-coupled piconets, per-piconet report
//	btsim -scenario file.json                    # a v2 scenario file
//	btsim -scenario churn -export churn.json     # write the resolved spec as v2 JSON
//	btsim -target 40ms -reps 8                   # 8 seeds in parallel, mean±95% CI
//	btsim -target 40ms -ci-target 0.05           # replicate until the CI is tight
//	btsim -target 40ms -cache-dir .runcache      # replay unchanged runs instantly
//
// -scenario accepts either a name from the registry (see -list) or a path
// to a JSON scenario file; timeline scenarios additionally print the
// online admission log with per-request admit/reject outcomes. With
// -reps > 1 the scenario replicates under independently derived seeds
// across a parallel worker pool (the detailed report shows replication 0;
// a summary table aggregates all of them). With -ci-target the
// replication count is chosen adaptively: replications keep running until
// the 95% CI half-width of -ci-metric meets the target or -max-reps is
// hit. An exchange trace, when requested, records replication 0 only and
// is incompatible with both -ci-target and -cache-dir (traced runs cannot
// be replayed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bluegs/internal/core"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(1)
	}
}

// resolveScenario loads the -scenario argument: a registered name first,
// then a file path.
func resolveScenario(arg string) (scenario.Spec, error) {
	if spec, ok := scenario.Lookup(arg); ok {
		return spec, nil
	}
	if _, err := os.Stat(arg); err == nil {
		return scenario.LoadFile(arg)
	}
	return scenario.Spec{}, fmt.Errorf("unknown scenario %q (not registered — see -list — and not a file)", arg)
}

func run() error {
	var (
		target    = flag.Duration("target", 40*time.Millisecond, "GS delay requirement")
		duration  = flag.Duration("duration", 60*time.Second, "simulated time")
		seed      = flag.Int64("seed", 1, "random seed")
		reps      = flag.Int("reps", 1, "independently seeded replications (adds a summary with 95% CIs)")
		workers   = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		mode      = flag.String("mode", "variable", "planner mode: fixed or variable")
		pollerK   = flag.String("poller", "pfp", "best-effort poller: pfp, round-robin, exhaustive-rr, fep, edc, demand, hol-priority")
		noPiggy   = flag.Bool("no-piggyback", false, "disable piggybacking in admission")
		iaa       = flag.Bool("interference-aware", false, "derate admission by the expected FH co-channel collision probability (needs a scatternet scenario with interference enabled)")
		derate    = flag.Float64("derate", 0, "static admission success probability in (0,1), overriding the medium estimate (implies -interference-aware)")
		csv       = flag.Bool("csv", false, "emit CSV instead of a text table")
		scenarioF = flag.String("scenario", "", "scenario to run: a registered name (see -list) or a JSON file path")
		list      = flag.Bool("list", false, "list registered scenario names and exit")
		export    = flag.String("export", "", "write the resolved scenario as v2 JSON to this file before running")
		hist      = flag.Bool("hist", false, "print per-GS-flow delay histograms")
		traceOut  = flag.String("trace", "", "write an exchange trace CSV to this file (replication 0)")
		ciTarget  = flag.Float64("ci-target", 0, "adaptive replication: replicate until the 95% CI half-width of -ci-metric is below this fraction of its mean (0 = fixed -reps)")
		ciMetric  = flag.String("ci-metric", "gs-delay", "adaptive stopping metric: gs-delay, violations, gs-kbps or be-kbps")
		maxReps   = flag.Int("max-reps", 0, "adaptive replication cap (default 32)")
		cacheDir  = flag.String("cache-dir", "", "content-addressed run cache directory: unchanged runs replay instantly across invocations")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(scenario.Names(), "\n"))
		return nil
	}
	if *traceOut != "" && (*ciTarget > 0 || *cacheDir != "") {
		return fmt.Errorf("-trace records live exchanges and cannot be combined with -ci-target or -cache-dir")
	}
	durationSet, seedSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "duration":
			durationSet = true
		case "seed":
			seedSet = true
		}
	})

	var spec scenario.Spec
	switch {
	case *scenarioF != "":
		loaded, err := resolveScenario(*scenarioF)
		if err != nil {
			return err
		}
		spec = loaded
		if spec.Duration <= 0 || durationSet {
			spec.Duration = *duration
		}
		// A scenario's pinned seed is the default, but an explicit
		// -seed always wins.
		if spec.Seed != 0 && !seedSet {
			*seed = spec.Seed
		}
	default:
		spec = scenario.Paper(*target)
		spec.Duration = *duration
		spec.BEPoller = scenario.BEPollerKind(*pollerK)
		spec.WithoutPiggybacking = *noPiggy
		switch *mode {
		case "fixed":
			spec.Mode = core.FixedInterval
		case "variable":
			spec.Mode = core.VariableInterval
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
	}
	if *derate != 0 && (*derate <= 0 || *derate >= 1) {
		return fmt.Errorf("-derate %g outside (0,1)", *derate)
	}
	if *iaa || *derate != 0 {
		spec.InterferenceAwareAdmission = true
		spec.AdmissionDerate = *derate
		if !spec.Interference.Enabled {
			fmt.Fprintln(os.Stderr, "btsim: -interference-aware is inert: the scenario has no interference coupling")
		}
	}
	if *export != "" {
		data, err := scenario.Marshal(spec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "btsim: wrote %s\n", *export)
	}

	var hooks scenario.Hooks
	var csvTracer *piconet.CSVTracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		csvTracer = piconet.NewCSVTracer(f)
		hooks.Tracer = csvTracer
	}

	var cache *harness.RunCache
	if *cacheDir != "" {
		c, err := harness.NewRunCache(harness.CacheConfig{Dir: *cacheDir})
		if err != nil {
			return err
		}
		cache = c
		defer func() {
			fmt.Fprintf(os.Stderr, "btsim: cache: %s\n", cache.Stats())
		}()
	}
	sweepCfg := harness.SweepConfig{
		Duration:     spec.Duration,
		Seed:         *seed,
		Replications: *reps,
	}
	grid := harness.Grid{Name: spec.Name, Cells: []string{spec.Name},
		Build: func(string) scenario.Spec { return spec }}
	var results []harness.RunResult
	adaptive := *ciTarget > 0
	if adaptive {
		metric, err := harness.MetricByName(*ciMetric)
		if err != nil {
			return err
		}
		outcomes, err := harness.ExecuteAdaptive(grid, sweepCfg, harness.AdaptiveOptions{
			Options: harness.Options{Workers: *workers, Cache: cache},
			Metric:  metric,
			RelTol:  *ciTarget,
			MaxReps: *maxReps,
		})
		if err != nil {
			return err
		}
		o := outcomes[0]
		results = o.Runs
		note := "converged"
		if !o.Converged {
			note = "stopped at the rep cap"
		}
		fmt.Fprintf(os.Stderr, "btsim: %s after %d reps (%s CI half-width %.3g, mean %.3g)\n",
			note, o.Reps(), metric.Name, o.Metric.CI95, o.Metric.Mean)
	} else {
		sw := grid.Sweep(sweepCfg)
		// The tracer is a single shared sink; only replication 0 records.
		if hooks.Tracer != nil {
			for i := range sw.Runs {
				if sw.Runs[i].Rep == 0 {
					sw.Runs[i].Hooks = hooks
				}
			}
		}
		rs, err := harness.Execute(sw.Runs, harness.Options{Workers: *workers, Cache: cache})
		if err != nil {
			return err
		}
		results = rs
	}
	res := results[0].Result
	if csvTracer != nil {
		if err := csvTracer.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	tbl := res.Report()
	if *csv {
		if err := tbl.WriteCSV(os.Stdout); err != nil {
			return err
		}
		if rt := res.RouteReport(); rt != nil {
			if err := rt.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
		if adm := res.AdmissionReport(); adm != nil {
			if err := adm.WriteCSV(os.Stdout); err != nil {
				return err
			}
		}
	} else {
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}
		if rt := res.RouteReport(); rt != nil {
			fmt.Println()
			if err := rt.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if adm := res.AdmissionReport(); adm != nil {
			fmt.Println()
			if err := adm.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Printf("\nslot budget: %v\n", res.Slots)
		fmt.Printf("admitted GS flows:\n")
		for _, pf := range res.Admitted {
			fmt.Printf("  flow %d: priority %d, R=%.0f B/s, t=%v, x=%v, bound=%v\n",
				pf.Request.ID, pf.Priority, pf.Request.Rate,
				pf.Params.Interval.Round(time.Microsecond), pf.X, pf.Bound.Round(time.Microsecond))
		}
	}
	if *hist {
		for _, f := range res.Flows {
			if f.Class != piconet.Guaranteed || f.Delay == nil || f.Delay.Count() == 0 {
				continue
			}
			upper := f.Bound + f.Bound/4
			h := stats.NewDurationHistogram(upper, 20)
			f.Delay.FillHistogram(h)
			fmt.Printf("\nflow %d delay distribution (bound %v):\n", f.ID, f.Bound.Round(time.Microsecond))
			if err := h.WriteASCII(os.Stdout, 48); err != nil {
				return err
			}
		}
	}
	if len(results) > 1 {
		// In CSV mode stdout must stay machine-readable; the summary
		// goes to stderr instead.
		dst := os.Stdout
		if *csv {
			dst = os.Stderr
		}
		if err := writeReplicationSummary(dst, results); err != nil {
			return err
		}
	}
	var violations, gsFlowRuns int
	for _, r := range results {
		violations += len(r.Result.BoundViolations())
		for _, f := range r.Result.Flows {
			if f.Class == piconet.Guaranteed {
				gsFlowRuns++
			}
		}
	}
	if violations > 0 {
		if spec.Interference.Enabled {
			// Bound erosion under co-channel interference is the measured
			// effect, not a scheduler failure: report it without failing.
			fmt.Fprintf(os.Stderr,
				"btsim: %d of %d GS flow runs exceeded their bound under FH interference (violation fraction %.3f)\n",
				violations, gsFlowRuns, float64(violations)/float64(gsFlowRuns))
			return nil
		}
		return fmt.Errorf("%d GS flow runs violated their delay bound", violations)
	}
	return nil
}

// writeReplicationSummary aggregates all replications into mean±95% CI
// rows plus the worst GS delay seen across any seed.
func writeReplicationSummary(w *os.File, results []harness.RunResult) error {
	tbl := stats.NewTable(
		fmt.Sprintf("\nreplication summary (%d independently seeded runs, mean±95%% CI)", len(results)),
		"quantity", "value")
	gs := harness.Aggregate(results, func(r *scenario.Result) float64 {
		return r.TotalKbps(piconet.Guaranteed)
	})
	be := harness.Aggregate(results, func(r *scenario.Result) float64 {
		return r.TotalKbps(piconet.BestEffort)
	})
	tbl.AddRow("GS kbps", gs.FormatMeanCI())
	tbl.AddRow("BE kbps", be.FormatMeanCI())
	var worst time.Duration
	for _, r := range results {
		for _, f := range r.Result.Flows {
			if f.Class == piconet.Guaranteed && f.DelayMax > worst {
				worst = f.DelayMax
			}
		}
	}
	tbl.AddRow("worst GS delay (all seeds)", worst.Round(time.Microsecond))
	return tbl.WriteText(w)
}
