package scenario

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// nopTracer is the minimal Tracer for hook-forcing partition tests.
type nopTracer struct{}

func (nopTracer) Trace(piconet.TraceEntry) {}

// TestKernelShardsPartition pins the shard-partition rule: unbridged
// piconets shard apart, bridge/route/move connectivity merges groups,
// and scatternet-global machinery collapses to a single group (the
// legacy single-kernel path).
func TestKernelShardsPartition(t *testing.T) {
	scatter := func(n int) Spec {
		return Scatternet(ScatternetConfig{Piconets: n, Duration: time.Second})
	}
	cases := []struct {
		name  string
		spec  Spec
		hooks Hooks
		want  [][]string
	}{
		{
			name: "unbridged piconets shard apart",
			spec: scatter(4),
			want: [][]string{{"pn1"}, {"pn2"}, {"pn3"}, {"pn4"}},
		},
		{
			name: "single piconet is single group",
			spec: scatter(1),
			want: [][]string{{"pn1"}},
		},
		{
			name: "bridge residency merges its piconets",
			spec: func() Spec {
				s := scatter(3)
				s.Bridges = []BridgeSpec{{
					Name:   "b1",
					Period: 100 * time.Millisecond,
					Residency: []ResidencySpec{
						{Piconet: "pn1", Slave: 7, Start: 0, End: 50 * time.Millisecond},
						{Piconet: "pn3", Slave: 7, Start: 50 * time.Millisecond, End: 100 * time.Millisecond},
					},
				}}
				return s
			}(),
			want: [][]string{{"pn1", "pn3"}, {"pn2"}},
		},
		{
			name: "move with a named target merges source and destination",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline,
					MoveFlowAt(time.Second, 1, "pn3").For("pn1"))
				return s
			}(),
			want: [][]string{{"pn1", "pn3"}, {"pn2"}},
		},
		{
			name: "move with an open target forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline,
					MoveFlowAt(time.Second, 1, "").For("pn1"))
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "handoff recovery forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Recovery.Policy = faults.PolicyHandoff
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "a master crash forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Faults.Crashes = []faults.MasterCrash{{Piconet: "pn2", At: time.Second}}
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "piconet churn forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline, RemovePiconetAt(time.Second, "pn2"))
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name:  "runtime hooks force a single group",
			spec:  scatter(3),
			hooks: Hooks{Tracer: nopTracer{}},
			want:  [][]string{{"pn1", "pn2", "pn3"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := kernelShards(tc.spec.WithDefaults(), tc.hooks)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("kernelShards = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestKernelShardsRouteMergesHops: a route's hop piconets must co-shard
// (the store-and-forward handoff has zero lookahead).
func TestKernelShardsRouteMergesHops(t *testing.T) {
	spec := Bridged(BridgedConfig{Hops: 2, Duration: time.Second})
	spec.Piconets = append(spec.Piconets, PiconetSpec{
		Name: "pn-loose",
		GS: []GSFlow{{
			ID: 1, Slave: 1, Dir: piconet.Up,
			Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
		}},
	})
	groups := kernelShards(spec.WithDefaults(), Hooks{})
	want := [][]string{{"pn1", "pn2"}, {"pn-loose"}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("kernelShards = %v, want %v", groups, want)
	}
}

// TestShardSeedDistinct: every shard draws from its own stream, shard 0
// keeps the run seed, and the mix differs from the replication-seed mix
// (shard g of replication 0 must not equal shard 0 of replication g).
func TestShardSeedDistinct(t *testing.T) {
	const base = 12345
	if got := shardSeed(base, 0); got != base {
		t.Fatalf("shardSeed(base, 0) = %d, want the run seed %d", got, base)
	}
	seen := map[int64]int{base: 0}
	for g := 1; g < 64; g++ {
		s := shardSeed(base, g)
		if s == 0 {
			t.Fatalf("shard %d: zero seed", g)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("shard %d collides with shard %d: seed %d", g, prev, s)
		}
		seen[s] = g
	}
}

// shardedProbe is the sharded determinism workload: several unbridged
// piconets coupled through interference, online GS arrivals exercising
// the admission log, and a mid-run flow removal.
func shardedProbe() (*Result, error) {
	spec := Scatternet(ScatternetConfig{
		Piconets: 4,
		OnlineGS: 1,
		Duration: 3 * time.Second,
	})
	spec.Timeline = append(spec.Timeline,
		RemoveAt(2*time.Second, 1).For("pn2"))
	return Run(spec)
}

// TestShardedByteIdentical is the sharded kernel's acceptance spec at
// scenario level: merged metrics, report tables and the chronological
// admission log must be byte-identical from one run to the next.
func TestShardedByteIdentical(t *testing.T) {
	ref, err := shardedProbe()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Piconets) != 4 {
		t.Fatalf("probe ran %d piconets, want 4", len(ref.Piconets))
	}
	if len(ref.Admissions) == 0 {
		t.Fatal("probe produced no admission records")
	}
	got, err := shardedProbe()
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != ref.Events {
		t.Fatalf("%d kernel events, want %d", got.Events, ref.Events)
	}
	if r, want := got.Report().String(), ref.Report().String(); r != want {
		t.Fatalf("report diverged between identical runs:\n%s\n--- want ---\n%s", r, want)
	}
	if !reflect.DeepEqual(got.Admissions, ref.Admissions) {
		t.Fatalf("admission log diverged:\n%+v\nwant:\n%+v", got.Admissions, ref.Admissions)
	}
	if !reflect.DeepEqual(got.Routes, ref.Routes) {
		t.Fatal("route table diverged")
	}
}

// TestShardedRoutedScatternetDeterministic: a spec mixing a routed
// (single-shard) pair with independent piconets merges deterministically
// — including the route table.
func TestShardedRoutedScatternetDeterministic(t *testing.T) {
	build := func() (*Result, error) {
		spec := Bridged(BridgedConfig{Hops: 2, Duration: 2 * time.Second})
		extra := Scatternet(ScatternetConfig{Piconets: 2, Duration: spec.Duration})
		for i := range extra.Piconets {
			ps := extra.Piconets[i]
			ps.Name = "x" + ps.Name
			spec.Piconets = append(spec.Piconets, ps)
		}
		spec.Interference = InterferenceSpec{Enabled: true}
		return Run(spec)
	}
	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Routes) == 0 {
		t.Fatal("probe produced no route results")
	}
	got, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if got.Report().String() != ref.Report().String() {
		t.Fatal("report diverged between identical runs")
	}
	if !reflect.DeepEqual(got.Routes, ref.Routes) {
		t.Fatal("route table diverged")
	}
}

// TestShardedRaceHammer runs one sharded spec from GOMAXPROCS+2
// goroutines at once, the way the harness pool runs sharded simulations
// side by side — the -race acceptance test that concurrent runs share
// no mutable state (medium snapshot swap, merge, admission logs).
func TestShardedRaceHammer(t *testing.T) {
	spec := Scatternet(ScatternetConfig{
		Piconets: 6,
		OnlineGS: 1,
		Duration: 1500 * time.Millisecond,
	})
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Report().String()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0)+2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := Run(spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got.Report().String() != want {
				t.Errorf("goroutine %d: report diverged", g)
			}
		}(g)
	}
	wg.Wait()
}
