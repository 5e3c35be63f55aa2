package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestWelfordGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(rng.NormFloat64() * 3.7)
	}
	var got Welford
	roundTrip(t, &w, &got)
	if got != w {
		t.Fatalf("round trip changed state: %+v vs %+v", got, w)
	}
	// Decoded accumulators must keep accumulating identically.
	w.Add(1.25)
	got.Add(1.25)
	if got != w {
		t.Fatal("post-decode Add diverged")
	}
}

func TestSampleGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewSample(64)
	for i := 0; i < 500; i++ {
		s.Add(rng.Float64())
	}
	var got Sample
	roundTrip(t, s, &got)
	if got.Count() != s.Count() || got.Retained() != s.Retained() {
		t.Fatalf("counts drifted: %d/%d vs %d/%d", got.Count(), got.Retained(), s.Count(), s.Retained())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got.Quantile(q) != s.Quantile(q) {
			t.Fatalf("quantile %v drifted", q)
		}
	}
	// The reservoir RNG state travels too: identical future replacement
	// decisions on both copies.
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		s.Add(x)
		got.Add(x)
	}
	a, b := s.Values(), got.Values()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir diverged at %d after decode", i)
		}
	}
}

func TestDurationStatsGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDurationStats(128)
	for i := 0; i < 1000; i++ {
		d.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
	}
	var got DurationStats
	roundTrip(t, d, &got)
	if got.Count() != d.Count() || got.Mean() != d.Mean() || got.Max() != d.Max() ||
		got.Min() != d.Min() || got.StdDev() != d.StdDev() {
		t.Fatal("moments drifted through gob")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got.Quantile(q) != d.Quantile(q) {
			t.Fatalf("quantile %v drifted", q)
		}
	}
}

// wireOf encodes any of the three accumulator types.
func wireOf(t *testing.T, v gob.GobEncoder) []byte {
	t.Helper()
	b, err := v.GobEncode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// TestWireSpecialFloatsBitExact: NaN payloads, infinities and -0 survive
// the wire bit for bit, in the moments and in the retained values.
func TestWireSpecialFloatsBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negNaN := math.Float64frombits(0xfff0_0000_0000_0001) // signalling, sign set
	specials := []float64{nan, negNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64}
	w := Welford{n: 7, mean: nan, m2: math.Inf(1), min: math.Copysign(0, -1), max: negNaN}
	var gotW Welford
	if err := gotW.GobDecode(wireOf(t, w)); err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]float64{{w.mean, gotW.mean}, {w.m2, gotW.m2}, {w.min, gotW.min}, {w.max, gotW.max}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("welford field %d: bits %#x, want %#x", i, math.Float64bits(pair[1]), math.Float64bits(pair[0]))
		}
	}
	s := Sample{values: specials, seen: uint64(len(specials))}
	var gotS Sample
	if err := gotS.GobDecode(wireOf(t, s)); err != nil {
		t.Fatal(err)
	}
	for i := range specials {
		if math.Float64bits(gotS.values[i]) != math.Float64bits(specials[i]) {
			t.Errorf("value %d: bits %#x, want %#x", i, math.Float64bits(gotS.values[i]), math.Float64bits(specials[i]))
		}
	}
}

// TestSampleWireStates round-trips the shapes a Sample can take: nil and
// empty values (both decode to nil, as gob did), sorted or not, unbounded
// or capped, and an active reservoir whose later Adds must match.
func TestSampleWireStates(t *testing.T) {
	active := NewSample(8)
	for i := 0; i < 100; i++ {
		active.Add(float64(i % 13))
	}
	sorted := NewSample(0)
	for _, x := range []float64{3, 1, 2} {
		sorted.Add(x)
	}
	sorted.Quantile(0.5)
	cases := map[string]*Sample{
		"nil":          {},
		"empty":        {values: []float64{}},
		"negative cap": {cap: -3, values: []float64{2, 1}, seen: 2},
		"unbounded":    {values: []float64{2, 1}, seen: 2},
		"sorted":       sorted,
		"capped":       {cap: 4, values: []float64{1}, seen: 1, rnd: 99},
		"active":       active,
		"large cap":    {cap: math.MaxInt32 + 1, seen: 1 << 40},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			var got Sample
			if err := got.GobDecode(wireOf(t, s)); err != nil {
				t.Fatal(err)
			}
			want := *s
			if len(want.values) == 0 {
				want.values = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
			for i := 0; i < 200; i++ {
				x := float64(i) * 0.25
				s.Add(x)
				got.Add(x)
			}
			if !reflect.DeepEqual(got.values, s.values) || got.seen != s.seen || got.rnd != s.rnd {
				t.Fatal("Adds after decode diverged from the original")
			}
		})
	}
}

// TestDurationStatsWireGolden pins the byte layout. If it fails, the wire
// changed: every persisted cache entry and journal is now unreadable, so
// bump the wire versions, the harness cache footer magic
// (cacheFooterMagic) and the fabric journal magic together, then update
// this golden.
func TestDurationStatsWireGolden(t *testing.T) {
	d := NewDurationStats(2)
	d.Add(time.Millisecond)
	d.Add(3 * time.Millisecond)
	const want = "" +
		"01" + // DurationStats version
		"01" + // Welford version
		"0200000000000000" + // n = 2
		"0000000080843e41" + // mean = 2e6
		"000000a2941a7d42" + // m2 = 2e12
		"0000000080842e41" + // min = 1e6
		"0000000060e34641" + // max = 3e6
		"01" + // Sample version
		"00" + // not sorted
		"04" + // cap = 2, zig-zag
		"0200000000000000" + // seen = 2
		"157c4a7fb979379e" + // rnd, the NewSample seed
		"02" + // two values
		"0000000080842e41" + // 1e6
		"0000000060e34641" // 3e6
	if got := hex.EncodeToString(wireOf(t, d)); got != want {
		t.Fatalf("DurationStats wire changed; bump cacheFooterMagic and the journal magic before updating this golden:\n got %s\nwant %s", got, want)
	}
}

// TestWireRejectsMalformed: every malformed payload is a clean error,
// including states a later Add could not continue from.
func TestWireRejectsMalformed(t *testing.T) {
	good := wireOf(t, Sample{cap: 2, values: []float64{1, 2}, seen: 5, rnd: 7})
	sample := func(sorted byte, cap int64, seen uint64, vals ...float64) []byte {
		b := []byte{sampleWireVersion, sorted}
		b = binary.AppendVarint(b, cap)
		b = binary.LittleEndian.AppendUint64(b, seen)
		b = binary.LittleEndian.AppendUint64(b, 1)
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	noCount := sample(0, 0, 10)
	noCount = noCount[:len(noCount)-1]
	cases := map[string][]byte{
		"empty":               nil,
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"unknown version":     append([]byte{9}, good[1:]...),
		"unknown flag":        append([]byte{sampleWireVersion, 2}, good[2:]...),
		"count beyond bytes":  append(noCount, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8),
		"seen below values":   sample(0, 0, 1, 1, 2),
		"overfull reservoir":  sample(0, 2, 3, 1, 2, 3),
		"seen about to wrap":  sample(0, 1, math.MaxUint64, 1),
		"unsorted but sorted": sample(1, 0, 2, 2, 1),
		"non-minimal cap":     append([]byte{sampleWireVersion, 0, 0x80, 0x00}, good[3:]...),
	}
	for i := range good {
		cases["truncated to "+strconv.Itoa(i)] = good[:i]
	}
	for name, data := range cases {
		var s Sample
		if err := s.GobDecode(data); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, s)
		}
	}
	w := wireOf(t, Welford{n: 1})
	var d DurationStats
	for _, data := range [][]byte{w[:len(w)-1], append(w, 0), append([]byte{2}, w[1:]...)} {
		var got Welford
		if err := got.GobDecode(data); err == nil {
			t.Errorf("welford %x: decoded, want an error", data)
		}
		if err := d.GobDecode(append([]byte{durationStatsWireVersion}, data...)); err == nil {
			t.Errorf("duration stats over welford %x: decoded, want an error", data)
		}
	}
}

// TestDecodeAllocatesOnlyValues: decoding costs one allocation, the
// retained values.
func TestDecodeAllocatesOnlyValues(t *testing.T) {
	d := NewDurationStats(64)
	for i := 0; i < 100; i++ {
		d.Add(time.Duration(i) * time.Microsecond)
	}
	data := wireOf(t, d)
	var got DurationStats
	if n := testing.AllocsPerRun(100, func() {
		if err := got.GobDecode(data); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decode made %v allocations, want 1", n)
	}
}
