package main

import (
	"math"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return xs
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // ranks 91..100 lie beyond
		{99, 0.9, 0, false},  // only 9 beyond
		{1000, 0.9, 900, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		xs := seq(c.n)
		got, err := percentile(xs, c.p)
		if (err == nil) != c.ok {
			t.Errorf("n=%d p=%g: err=%v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("n=%d p=%g: got %g, want %g", c.n, c.p, got, c.want)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("n=%d: percentile reordered its input", c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median even = %g, want the lower middle", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func sp(id, parent int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, "pass", 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, "run", 10, 20), sp(3, 1, "run", 40, 50)}, 80},
		{"overlapping count once", []span{sp(2, 1, "run", 10, 30), sp(3, 1, "run", 20, 40), sp(4, 1, "run", 25, 35)}, 70},
		{"clipped to the parent", []span{sp(2, 1, "run", -10, 10), sp(3, 1, "run", 90, 120)}, 80},
		{"outside", []span{sp(2, 1, "run", 100, 150)}, 100},
		{"covering", []span{sp(2, 1, "run", 0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfShare(t *testing.T) {
	spans := []span{
		sp(1, 0, "pass", 0, 100),
		sp(2, 1, "run", 0, 50),
		sp(3, 2, "cache.get", 0, 10),
		sp(4, 1, "run", 50, 100),
		sp(5, 0, "pass", 100, 200),
	}
	if got := selfShare(spans, "pass"); got != 0.5 {
		t.Errorf("pass self share %g, want 0.5", got)
	}
	if got := selfShare(spans, "run"); got != 0.9 {
		t.Errorf("run self share %g, want 0.9", got)
	}
	if got := selfShare(spans, "missing"); got != 0 {
		t.Errorf("missing self share %g, want 0", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.record(0, 0, "x", "", time.Now(), time.Now()); id != 0 || tr.newID() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	id := tr.newID()
	start := time.Now()
	if got := tr.record(id, 0, "pass", "", start, start.Add(time.Millisecond)); got != id {
		t.Fatalf("reserved id %d recorded as %d", id, got)
	}
	child := tr.record(0, id, "run", "1/0", start, start)
	if child == id || len(tr.snapshot()) != 2 {
		t.Fatalf("spans %+v", tr.snapshot())
	}
}

func paperResult(t *testing.T, seed int64) (scenario.Spec, *scenario.Result) {
	t.Helper()
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	spec.Seed = seed
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

func TestDigestSurvivesCacheRoundTrip(t *testing.T) {
	spec, res := paperResult(t, 7)
	key := harness.CacheKey(harness.DefaultCacheSalt, spec)
	entry, err := harness.EncodeResultEntry(key, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := harness.DecodeResultEntry(key, entry, spec)
	if err != nil {
		t.Fatal(err)
	}
	if digest(back) != digest(res) {
		t.Fatalf("cache round trip changed the digest: %s → %s", digest(res), digest(back))
	}
	if d := digest(res); len(d) != 16 || d != digest(res) {
		t.Fatalf("digest %q is not a stable 16-hex fingerprint", d)
	}
}

func TestDigestSeesModelChanges(t *testing.T) {
	_, res := paperResult(t, 7)
	base := digest(res)
	_, other := paperResult(t, 8)
	if digest(other) == base {
		t.Error("another seed gave the same digest")
	}
	changed := *res
	changed.Flows = append([]scenario.FlowResult(nil), res.Flows...)
	changed.Flows[0].DelayMax += time.Nanosecond
	if digest(&changed) == base {
		t.Error("a 1 ns change of a flow's max delay kept the digest")
	}
	changed = *res
	changed.Events++
	if digest(&changed) == base {
		t.Error("a changed event count kept the digest")
	}
	if setDigest([]string{"a", "b"}) == setDigest([]string{"b", "a"}) {
		t.Error("the set digest ignores run order")
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  bluegs/internal/baseband.(*Channel).Exchange
     200ms 20.00% 60.00%      200ms 20.00%  bluegs/internal/sim.(*Kernel).Run
     100ms 10.00% 70.00%      100ms 10.00%  encoding/gob.(*Decoder).decodeStruct
      50ms  5.00% 75.00%       50ms  5.00%  reflect.Value.Field
     250ms 25.00%   100%      250ms 25.00%  runtime.mallocgc
         0     0%   100%      900ms 90.00%  main.run
`)
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"baseband": 0.4, "sim": 0.2, "codec": 0.15}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-12 {
			t.Errorf("%s share %g, want %g", k, shares[k], v)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want only %v", shares, want)
	}
	if _, err := parseTop([]byte("no samples\n")); err == nil {
		t.Error("empty profile parsed")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"bluegs/internal/sim.(*Kernel).Run":                            "bluegs/internal/sim",
		"bluegs/internal/scenario.(*runner).run.func1":                 "bluegs/internal/scenario",
		"encoding/gob.(*Decoder).Decode":                               "encoding/gob",
		"runtime.mallocgc":                                             "runtime",
		"reflect.Value.Field":                                          "reflect",
		"bluegs/internal/sim.(*wheel[go.shape.int]).pop":               "bluegs/internal/sim",
		"bluegs/internal/sim.(*heap[bluegs/internal/piconet.ev]).push": "bluegs/internal/sim",
		"bluegs/internal/sim.New[bluegs/internal/core.x]":              "bluegs/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
