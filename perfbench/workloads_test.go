package main

import (
	"strings"
	"testing"
	"time"

	"bluegs/internal/fabric"
	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

func spanNames(spans []span) map[string]int {
	n := make(map[string]int)
	for _, s := range spans {
		n[s.Name]++
	}
	return n
}

func TestCacheReplayPassesReproduceSetup(t *testing.T) {
	w := &inproc{workers: 2, cached: true, workDir: t.TempDir(), build: func() []harness.Run {
		return fig5Grid(200*time.Millisecond, 3, 12)
	}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p := runPhase(w, 0, tr, "harness.Execute", w.setupDigests())
	if p.failed != 0 || p.passes < 2 || len(p.latencies) < minSamples {
		t.Fatalf("passes=%d samples=%d failed=%d: %v", p.passes, len(p.latencies), p.failed, p.failures)
	}
	if w.lay.hits != w.lay.lookups || w.lay.hits == 0 {
		t.Errorf("hits %d of %d lookups, want all", w.lay.hits, w.lay.lookups)
	}
	if len(w.lay.hitSelfMs) != w.lay.hits || len(w.lay.setupPutMs) != len(w.grid) {
		t.Errorf("%d hit self times for %d hits, %d set-up puts for %d runs",
			len(w.lay.hitSelfMs), w.lay.hits, len(w.lay.setupPutMs), len(w.grid))
	}
	names := spanNames(tr.snapshot())
	if names["run"] != len(p.latencies) || names["cache.get"] != len(p.latencies) || names["harness.Execute"] != p.passes {
		t.Errorf("spans %v for %d runs in %d passes", names, len(p.latencies), p.passes)
	}
}

func TestFabricPassesReproduce(t *testing.T) {
	w := &fabricWL{workers: 2, workDir: t.TempDir(),
		meta: fabric.JournalMeta{Grid: "fig5", Duration: 200 * time.Millisecond, Seed: 3, Replications: 6},
		build: func() []harness.Run {
			return fig5Grid(200*time.Millisecond, 3, 6)
		}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tr := newTracer()
	p := runPhase(w, 0, tr, "Coordinator.Execute", nil)
	if p.failed != 0 || p.passes < 2 || len(p.latencies) != p.passes*len(w.grid) {
		t.Fatalf("passes=%d samples=%d failed=%d: %v", p.passes, len(p.latencies), p.failed, p.failures)
	}
	f := w.lay.fabric
	if f.runsLeased != f.runs || f.leases == 0 || f.journalBytes == 0 || len(w.lay.putMs) != f.runs {
		t.Errorf("fabric stats %+v, %d puts", f, len(w.lay.putMs))
	}
	names := spanNames(tr.snapshot())
	if names["run"] != len(p.latencies) || names["cache.put"] != f.runs || names["http/complete"] != f.leases {
		t.Errorf("spans %v for %d runs under %d leases", names, f.runs, f.leases)
	}
	for _, s := range tr.snapshot() {
		if s.Name == "cache.put" && s.Parent == 0 {
			t.Fatalf("cache.put span without its /complete parent: %+v", s)
		}
	}
}

// flaky returns a different result on its second pass.
type flaky struct {
	inproc
	calls int
}

func (f *flaky) pass(tr *tracer, root, passID int64, k int) (passOut, error) {
	out, err := f.inproc.pass(tr, root, passID, k)
	f.calls++
	if f.calls == 2 {
		changed := *out.results[0].Result
		changed.Events++
		out.results[0].Result = &changed
	}
	return out, err
}

func TestGateCountsIrreproducibleRuns(t *testing.T) {
	w := &flaky{inproc: inproc{workers: 2, build: func() []harness.Run {
		return fig5Grid(100*time.Millisecond, 3, 12)
	}}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	p := runPhase(w, 0, nil, "harness.Execute", nil)
	if p.failed != 1 || !strings.Contains(p.failures[0], "digest") {
		t.Fatalf("failed=%d %v, want the one changed run", p.failed, p.failures)
	}
}

func TestPaperGateRejectsViolationsAndStarvedFlows(t *testing.T) {
	w := &inproc{gsFloor: true}
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := harness.RunResult{Run: harness.Run{Spec: spec}, Result: res}
	if err := w.check(run); err != nil {
		t.Fatalf("clean paper run rejected: %v", err)
	}
	violated := *res
	violated.Flows = append([]scenario.FlowResult(nil), res.Flows...)
	violated.Flows[0].DelayMax = violated.Flows[0].Bound + time.Millisecond
	if err := w.check(harness.RunResult{Run: run.Run, Result: &violated}); err == nil {
		t.Error("a bound violation passed the gate")
	}
	starved := *res
	starved.Flows = append([]scenario.FlowResult(nil), res.Flows...)
	starved.Flows[0].Kbps /= 2
	if err := w.check(harness.RunResult{Run: run.Run, Result: &starved}); err == nil {
		t.Error("a GS flow at half its rate passed the gate")
	}
}
