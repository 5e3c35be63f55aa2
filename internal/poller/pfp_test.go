package poller

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Dedicated PFP behavior: the arrival-rate estimator and the fairness
// account. The shared poller_test.go covers prediction edges and the
// deficit rule; these tests pin the estimator dynamics and the long-run
// fairness split.

// TestPFPLambdaTracksArrivalRate: feeding regular productive polls drives
// the estimated rate toward the true one; a long silent stretch decays it
// back down.
func TestPFPLambdaTracksArrivalRate(t *testing.T) {
	p := NewPFP(nil)
	// One packet every 10 ms => 100 packets/s, sampled by polling at the
	// same cadence.
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, UpBytes: 176, Slots: 4})
	}
	busy := p.state[1].lambda
	if busy < 60 || busy > 140 {
		t.Fatalf("lambda after steady 100/s traffic = %v, want ~100", busy)
	}
	// Now the slave goes quiet: empty polls at the same cadence.
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, Slots: 2})
	}
	idle := p.state[1].lambda
	if idle >= busy/4 {
		t.Fatalf("lambda after silence = %v, want well below %v", idle, busy)
	}
	if idle < 0.1 {
		t.Fatalf("lambda floor violated: %v", idle)
	}
}

// TestPFPPredictionReflectsRate: a slave with a high estimated rate is
// predicted active much sooner after an empty poll than a slow one.
func TestPFPPredictionReflectsRate(t *testing.T) {
	v := newMockView(1, 2)
	p := NewPFP(nil)
	now := sim.Time(0)
	// Slave 1 fast (poll every 5 ms, always data), slave 2 slow (always
	// empty).
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, UpBytes: 176, Slots: 4})
		p.Observe(Outcome{Slave: 2, End: now, Slots: 2})
	}
	// Both queues known empty at `now`; shortly after, the fast slave's
	// prediction dominates.
	p.Observe(Outcome{Slave: 1, End: now, Slots: 2})
	at := now + 8*time.Millisecond
	fast := p.Predict(at, v, 1)
	slow := p.Predict(at, v, 2)
	if fast <= slow {
		t.Fatalf("Predict: fast %v <= slow %v", fast, slow)
	}
	if fast < 0.5 {
		t.Fatalf("fast slave prediction %v too low 8ms after empty", fast)
	}
}

// TestPFPLongRunFairSplit: two permanently backlogged slaves with equal
// weights receive equal service (within 10%) over a long horizon —
// the max-min fairness property the paper relies on.
func TestPFPLongRunFairSplit(t *testing.T) {
	v := newMockView(1, 2)
	v.backlog[1] = 1
	v.backlog[2] = 1
	p := NewPFP(nil)
	now := sim.Time(0)
	slots := map[piconet.SlaveID]float64{}
	for i := 0; i < 1000; i++ {
		s, ok := p.Next(now, v)
		if !ok {
			t.Fatal("no slave")
		}
		// Slave 1's exchanges are three times longer: fairness must
		// account slots, not visits.
		used := 2
		if s == 1 {
			used = 6
		}
		now += sim.Time(used) * 625 * time.Microsecond
		p.Observe(Outcome{Slave: s, End: now, UpBytes: 176, Slots: used, UpMoreData: true})
		slots[s] += float64(used)
	}
	ratio := slots[1] / slots[2]
	if math.Abs(ratio-1) > 0.1 {
		t.Fatalf("slot split %v:%v (ratio %.3f), want equal within 10%%", slots[1], slots[2], ratio)
	}
}

// TestPFPWeightedSplit: a 3:1 weight assignment steers the long-run slot
// split accordingly.
func TestPFPWeightedSplit(t *testing.T) {
	v := newMockView(1, 2)
	v.backlog[1] = 1
	v.backlog[2] = 1
	p := NewPFP(map[piconet.SlaveID]float64{1: 3, 2: 1})
	now := sim.Time(0)
	slots := map[piconet.SlaveID]float64{}
	for i := 0; i < 2000; i++ {
		s, _ := p.Next(now, v)
		now += 4 * 625 * time.Microsecond
		p.Observe(Outcome{Slave: s, End: now, UpBytes: 176, Slots: 4, UpMoreData: true})
		slots[s] += 4
	}
	ratio := slots[1] / slots[2]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weighted slot ratio = %.3f, want ~3", ratio)
	}
}

// TestPFPActiveThresholdOption: valid thresholds apply; out-of-range
// values are ignored.
func TestPFPActiveThresholdOption(t *testing.T) {
	if p := NewPFP(nil, WithActiveThreshold(0.9)); p.activeThreshold != 0.9 {
		t.Fatalf("threshold = %v, want 0.9", p.activeThreshold)
	}
	for _, bad := range []float64{0, 1, -0.5, 2} {
		if p := NewPFP(nil, WithActiveThreshold(bad)); p.activeThreshold != 0.6 {
			t.Fatalf("threshold %v accepted, want default kept", bad)
		}
	}
}

// TestPFPIdleSlaveEventuallyProbed: even with a backlogged competitor,
// the idle slave's rising prediction eventually earns it a poll — PFP
// must not starve.
func TestPFPIdleSlaveEventuallyProbed(t *testing.T) {
	v := newMockView(1, 2)
	v.backlog[1] = 1 // slave 1 permanently backlogged
	p := NewPFP(nil)
	now := sim.Time(0)
	polled2 := false
	for i := 0; i < 2000 && !polled2; i++ {
		s, _ := p.Next(now, v)
		if s == 2 {
			polled2 = true
		}
		now += 4 * 625 * time.Microsecond
		up := 0
		if s == 1 {
			up = 176
		}
		p.Observe(Outcome{Slave: s, End: now, UpBytes: up, Slots: 4, UpMoreData: s == 1})
	}
	if !polled2 {
		t.Fatal("idle slave never probed over 5 simulated seconds")
	}
}

// bruteFairShare recomputes FairShareFraction by a pass over state, as
// PFP did before it kept running sums.
func bruteFairShare(p *PFP, s piconet.SlaveID) float64 {
	var total, weightSum float64
	for id, st := range p.state {
		total += st.servedSlots
		weightSum += p.weight(id)
	}
	if total == 0 || weightSum == 0 {
		return 0
	}
	fairShare := total * p.weight(s) / weightSum
	if fairShare == 0 {
		return math.Inf(1)
	}
	return p.slave(s).servedSlots / fairShare
}

// bruteNext is PFP.Next with every fair share recomputed by bruteFairShare.
func bruteNext(p *PFP, now sim.Time, v View) piconet.SlaveID {
	slaves := v.Slaves()
	if !p.inited {
		for _, s := range slaves {
			p.slave(s)
		}
		p.inited = true
	}
	var best piconet.SlaveID
	bestFrac := math.Inf(1)
	for _, s := range slaves {
		if p.Predict(now, v, s) < p.activeThreshold {
			continue
		}
		if frac := bruteFairShare(p, s); frac < bestFrac {
			best, bestFrac = s, frac
		}
	}
	if best != 0 {
		return best
	}
	best = slaves[0]
	for _, s := range slaves[1:] {
		if p.slave(s).lastPollEnd < p.slave(best).lastPollEnd {
			best = s
		}
	}
	return best
}

// TestPFPRunningSumsMatchBruteForce drives a PFP through random outcomes,
// with slave 4 joining the view mid-run so its state is created inside
// Next, and checks FairShareFraction and every pick against the
// brute-force recomputation over state. The weights are integers, so the
// brute-force sums are exact in any map order.
func TestPFPRunningSumsMatchBruteForce(t *testing.T) {
	weights := map[piconet.SlaveID]float64{1: 2, 2: 1, 3: 3}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := NewPFP(weights), NewPFP(weights)
		v := newMockView(1, 2, 3)
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			if i == 700 {
				v.slaves = append(v.slaves, 4)
			}
			for _, s := range v.slaves {
				v.backlog[s] = rng.Intn(2)
			}
			got, ok := p.Next(now, v)
			want := bruteNext(ref, now, v)
			if !ok || got != want {
				t.Fatalf("seed %d step %d: Next = %d (%v), brute force %d", seed, i, got, ok, want)
			}
			slots := 2 + 2*rng.Intn(3)
			now += sim.Time(slots) * 625 * time.Microsecond
			o := Outcome{Slave: got, End: now, Slots: slots, UpMoreData: rng.Intn(3) == 0}
			if rng.Intn(2) == 0 {
				o.UpBytes = 1 + rng.Intn(176)
			}
			p.Observe(o)
			ref.Observe(o)
			for s := range p.state {
				if got, want := p.FairShareFraction(s), bruteFairShare(p, s); got != want {
					t.Fatalf("seed %d step %d: FairShareFraction(%d) = %v, brute force %v", seed, i, s, got, want)
				}
			}
		}
		if len(p.state) != 4 {
			t.Fatalf("seed %d: %d slaves in state, want 4", seed, len(p.state))
		}
	}
}
