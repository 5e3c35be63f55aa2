package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shardTrace runs a ShardSet of n self-rescheduling RNG-driven shards
// that cross-post into each other's kernels, and returns a trace of
// every fired event: the determinism witness TestShardSetDeterministic
// compares byte for byte.
func shardTrace(t *testing.T, n int, horizon, epoch Time) (string, []uint64) {
	t.Helper()
	shards := make([]*Simulator, n)
	for i := range shards {
		shards[i] = New(WithSeed(int64(1000 + i)))
	}
	ss := NewShardSet(shards...)
	// One trace buffer per shard: a mailed event executes inside the
	// destination kernel, and the buffers concatenate in shard order
	// afterwards.
	traces := make([]strings.Builder, n)
	for i := range shards {
		i := i
		s := shards[i]
		var tick func()
		tick = func() {
			fmt.Fprintf(&traces[i], "s%d@%v r%d\n", i, s.Now(), s.Rand().Intn(1000))
			// Cross-post to the next shard: lands at the next barrier.
			dst := (i + 1) % n
			at := s.Now()
			ss.Post(i, dst, at, func() {
				fmt.Fprintf(&traces[dst], "mail s%d->s%d@%v\n", i, dst, shards[dst].Now())
			})
			s.After(time.Duration(1+s.Rand().Intn(7))*time.Millisecond, tick)
		}
		s.Schedule(0, tick)
	}
	errs := ss.RunEpochs(horizon, epoch, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	counts := make([]uint64, n)
	var trace strings.Builder
	for i, s := range shards {
		if s.Now() != horizon {
			t.Fatalf("shard %d stopped at %v, want %v", i, s.Now(), horizon)
		}
		counts[i] = s.Executed()
		trace.WriteString(traces[i].String())
	}
	return trace.String(), counts
}

// TestShardSetDeterministic is the kernel-level determinism spec: the
// full event trace — firing order, clock stamps, RNG draws, mailbox
// deliveries — must be byte-identical from one run to the next.
func TestShardSetDeterministic(t *testing.T) {
	const n = 5
	horizon, epoch := 200*time.Millisecond, 25*time.Millisecond
	refTrace, refCounts := shardTrace(t, n, horizon, epoch)
	if !strings.Contains(refTrace, "mail s4->s0") {
		t.Fatal("trace carries no cross-shard mail")
	}
	got, counts := shardTrace(t, n, horizon, epoch)
	if got != refTrace {
		t.Fatal("trace diverged between identical runs")
	}
	for i := range counts {
		if counts[i] != refCounts[i] {
			t.Fatalf("shard %d executed %d events, want %d", i, counts[i], refCounts[i])
		}
	}
}

// TestShardSetEpochChainEquivalence: driving one shard through many
// epochs must execute exactly the events a single Run to the horizon
// would (the chained-Run contract the epoch loop is built on).
func TestShardSetEpochChainEquivalence(t *testing.T) {
	build := func() *Simulator {
		s := New(WithSeed(7))
		var tick func()
		tick = func() {
			s.After(time.Duration(1+s.Rand().Intn(9))*time.Millisecond, tick)
		}
		s.Schedule(0, tick)
		return s
	}
	ref := build()
	if err := ref.Run(time.Second); err != nil {
		t.Fatalf("single run: %v", err)
	}
	sharded := build()
	ss := NewShardSet(sharded)
	for _, err := range ss.RunEpochs(time.Second, 10*time.Millisecond, nil) {
		if err != nil {
			t.Fatalf("epochs: %v", err)
		}
	}
	if sharded.Executed() != ref.Executed() || sharded.Now() != ref.Now() {
		t.Fatalf("epoch chain executed %d events to %v, single run %d to %v",
			sharded.Executed(), sharded.Now(), ref.Executed(), ref.Now())
	}
}

// TestShardSetMailClampsToBarrier: a post stamped before the barrier
// instant must be delivered at the barrier, never silently dropped into
// the destination's past (Schedule refuses past events).
func TestShardSetMailClampsToBarrier(t *testing.T) {
	a, b := New(), New()
	ss := NewShardSet(a, b)
	var deliveredAt Time = -1
	a.Schedule(time.Millisecond, func() {
		ss.Post(0, 1, time.Millisecond, func() { deliveredAt = b.Now() })
	})
	for _, err := range ss.RunEpochs(100*time.Millisecond, 25*time.Millisecond, nil) {
		if err != nil {
			t.Fatalf("epochs: %v", err)
		}
	}
	if deliveredAt != 25*time.Millisecond {
		t.Fatalf("mail delivered at %v, want clamped to the 25ms barrier", deliveredAt)
	}
}

// TestShardSetExchangeBarrier: the exchange hook must run after every
// epoch with all shard clocks parked at the boundary.
func TestShardSetExchangeBarrier(t *testing.T) {
	shards := []*Simulator{New(), New(), New()}
	for _, s := range shards {
		s := s
		var tick func()
		tick = func() { s.After(time.Millisecond, tick) }
		s.Schedule(0, tick)
	}
	ss := NewShardSet(shards...)
	var boundaries []Time
	errs := ss.RunEpochs(100*time.Millisecond, 30*time.Millisecond, func(end Time) {
		for i, s := range shards {
			if s.Now() != end {
				t.Fatalf("shard %d clock %v at barrier %v", i, s.Now(), end)
			}
		}
		boundaries = append(boundaries, end)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatalf("epochs: %v", err)
		}
	}
	want := []Time{30 * time.Millisecond, 60 * time.Millisecond, 90 * time.Millisecond, 100 * time.Millisecond}
	if len(boundaries) != len(want) {
		t.Fatalf("exchange ran at %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("exchange ran at %v, want %v", boundaries, want)
		}
	}
}

// TestShardSetPanicPropagates: shards step on the calling goroutine, so
// a panicking handler unwinds out of RunEpochs to the caller exactly as
// it would out of Simulator.Run, with the shards after it in the epoch
// left unrun.
func TestShardSetPanicPropagates(t *testing.T) {
	a, b := New(), New()
	fired := false
	a.Schedule(10*time.Millisecond, func() { panic("boom") })
	b.Schedule(20*time.Millisecond, func() { fired = true })
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		NewShardSet(a, b).RunEpochs(50*time.Millisecond, 25*time.Millisecond, nil)
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v, want the handler's panic value", recovered)
	}
	if fired {
		t.Fatal("a shard after the panicking one still ran")
	}
}

// TestShardSetStopAborts: Stop in one shard surfaces ErrStopped and ends
// the run at the epoch barrier, after every other shard completes the
// epoch.
func TestShardSetStopAborts(t *testing.T) {
	a, b := New(), New()
	a.Schedule(5*time.Millisecond, func() { a.Stop() })
	late := false
	sameEpoch := false
	b.Schedule(20*time.Millisecond, func() { sameEpoch = true })
	b.Schedule(40*time.Millisecond, func() { late = true })
	errs := NewShardSet(a, b).RunEpochs(100*time.Millisecond, 25*time.Millisecond, nil)
	if !errors.Is(errs[0], ErrStopped) {
		t.Fatalf("shard 0 error = %v, want ErrStopped", errs[0])
	}
	if errs[1] != nil || !sameEpoch {
		t.Fatalf("healthy shard did not finish the abort epoch: err=%v", errs[1])
	}
	if late {
		t.Fatal("epoch after the abort barrier still ran")
	}
}

// TestShardSetMailExchange drives many shards across many short epochs
// with RNG-addressed cross-shard mail and an exchange hook that
// snapshots every shard: each post must arrive at its destination at
// exactly the barrier that closes its sending epoch, the hook must see
// settled counts, and the whole run must repeat exactly.
func TestShardSetMailExchange(t *testing.T) {
	const n = 8
	horizon, epoch := 300*time.Millisecond, 5*time.Millisecond
	run := func() (deliveries []string, snapshot []uint64) {
		shards := make([]*Simulator, n)
		for i := range shards {
			shards[i] = New(WithSeed(int64(i + 1)))
		}
		ss := NewShardSet(shards...)
		for i := range shards {
			i := i
			s := shards[i]
			var tick func()
			tick = func() {
				if s.Rand().Intn(4) == 0 {
					dst := s.Rand().Intn(n)
					sent := s.Now()
					ss.Post(i, dst, sent, func() {
						// Run(end) fires events stamped end, so the
						// closing barrier is the first boundary >= sent.
						at, want := shards[dst].Now(), (sent+epoch-1)/epoch*epoch
						if want == 0 {
							want = epoch
						}
						if at != want {
							t.Errorf("post s%d->s%d sent at %v delivered at %v, want %v",
								i, dst, sent, at, want)
						}
						deliveries = append(deliveries, fmt.Sprintf("s%d->s%d@%v", i, dst, at))
					})
				}
				s.After(time.Duration(1+s.Rand().Intn(3))*time.Millisecond, tick)
			}
			s.Schedule(0, tick)
		}
		snapshot = make([]uint64, n)
		errs := ss.RunEpochs(horizon, epoch, func(end Time) {
			for i, s := range shards {
				snapshot[i] = s.Executed()
			}
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			if snapshot[i] != shards[i].Executed() {
				t.Fatalf("shard %d: final exchange snapshot %d != executed %d",
					i, snapshot[i], shards[i].Executed())
			}
		}
		return deliveries, snapshot
	}
	refMail, refCounts := run()
	if len(refMail) == 0 {
		t.Fatal("no cross-shard mail was delivered")
	}
	mail, counts := run()
	if !reflect.DeepEqual(mail, refMail) || !reflect.DeepEqual(counts, refCounts) {
		t.Fatal("mail deliveries or event counts diverged between identical runs")
	}
}

// TestShardSetEmptyAndSingle: degenerate sets run without epoch
// machinery.
func TestShardSetEmptyAndSingle(t *testing.T) {
	if errs := NewShardSet().RunEpochs(time.Second, 0, nil); len(errs) != 0 {
		t.Fatalf("empty set returned %d errors", len(errs))
	}
	s := New()
	fired := false
	s.Schedule(time.Millisecond, func() { fired = true })
	errs := NewShardSet(s).RunEpochs(time.Second, 0, nil)
	if errs[0] != nil || !fired || s.Now() != time.Second {
		t.Fatalf("single-shard set: errs=%v fired=%v now=%v", errs, fired, s.Now())
	}
}
