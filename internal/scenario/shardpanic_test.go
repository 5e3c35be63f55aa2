package scenario_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
	"bluegs/internal/sim"
)

// panicShard schedules a panicking handler into the last shard of every
// sharded run, inside the first interference epoch.
func panicShard(t *testing.T) {
	scenario.SetShardedStart(t, func(shards []*sim.Simulator) {
		shards[len(shards)-1].Schedule(10*time.Millisecond, func() { panic("shard exploded") })
	})
}

func shardedSpec() scenario.Spec {
	return scenario.Scatternet(scenario.ScatternetConfig{Piconets: 3, Duration: time.Second})
}

// TestShardedPanicReachesCaller: shards step on the calling goroutine, so
// a handler panic in a sharded run unwinds out of scenario.Run exactly
// as it would from a single-kernel run.
func TestShardedPanicReachesCaller(t *testing.T) {
	panicShard(t)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		scenario.Run(shardedSpec())
	}()
	if recovered != "shard exploded" {
		t.Fatalf("recovered %v, want the handler's panic value", recovered)
	}
}

// TestShardedPanicIsRunPanicked: the harness turns the same panic into
// that run's ErrRunPanicked, and the sweep's other runs — single-kernel
// ones, which never reach the hook — complete.
func TestShardedPanicIsRunPanicked(t *testing.T) {
	panicShard(t)
	paper := scenario.Paper(40 * time.Millisecond)
	paper.Duration = time.Second
	for _, timeout := range []time.Duration{0, time.Hour} {
		runs := []harness.Run{
			{Index: 0, Cell: "ok", Spec: paper},
			{Index: 1, Cell: "sharded", Spec: shardedSpec()},
			{Index: 2, Cell: "ok", Rep: 1, Spec: paper},
		}
		results, err := harness.Execute(runs, harness.Options{Workers: 2, Timeout: timeout})
		if !errors.Is(err, harness.ErrRunPanicked) {
			t.Fatalf("timeout=%v: sweep error = %v, want ErrRunPanicked", timeout, err)
		}
		if !errors.Is(results[1].Err, harness.ErrRunPanicked) ||
			!strings.Contains(results[1].Err.Error(), "shard exploded") {
			t.Fatalf("timeout=%v: sharded run err = %v", timeout, results[1].Err)
		}
		for _, i := range []int{0, 2} {
			if results[i].Err != nil || results[i].Result == nil {
				t.Fatalf("timeout=%v: healthy run %d infected: %v", timeout, i, results[i].Err)
			}
		}
	}
}
