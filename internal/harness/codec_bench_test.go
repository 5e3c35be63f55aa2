package harness_test

import (
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// codecCase is one simulated result the codec benchmarks encode and
// decode, with its cache key and entry bytes.
type codecCase struct {
	name  string
	spec  scenario.Spec
	key   string
	res   *scenario.Result
	entry []byte
}

// codecCases simulates the results of the codec benchmarks: a 1 s paper
// run and a 2 s 16-piconet scatternet run.
func codecCases(b *testing.B) []codecCase {
	b.Helper()
	paper := scenario.Paper(40 * time.Millisecond)
	paper.Duration = time.Second
	scatter := scenario.Scatternet(scenario.ScatternetConfig{
		Piconets:          16,
		OnlineGS:          2,
		InterferenceAware: true,
		Duration:          2 * time.Second,
	})
	cases := []codecCase{{name: "paper_1s", spec: paper}, {name: "scatternet_16pn_2s", spec: scatter}}
	for i := range cases {
		c := &cases[i]
		c.spec.Seed = 1
		rr, err := harness.Execute([]harness.Run{{Cell: c.name, Spec: c.spec}}, harness.Options{})
		if err != nil || rr[0].Err != nil {
			b.Fatalf("%s: simulate: %v %v", c.name, err, rr[0].Err)
		}
		c.key = harness.CacheKey(harness.DefaultCacheSalt, c.spec)
		c.res = rr[0].Result
		if c.entry, err = harness.EncodeResultEntry(c.key, c.res); err != nil {
			b.Fatalf("%s: encode: %v", c.name, err)
		}
	}
	return cases
}

// BenchmarkEncodeResultEntry measures the write half of the cache codec:
// a result to footer-framed entry bytes.
func BenchmarkEncodeResultEntry(b *testing.B) {
	for _, c := range codecCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := harness.EncodeResultEntry(c.key, c.res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.entry)), "entry_bytes")
		})
	}
}

// BenchmarkDecodeResultEntry measures the read half: footer check and
// decode of an entry into a result, as a warm cache hit pays it.
func BenchmarkDecodeResultEntry(b *testing.B) {
	for _, c := range codecCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := harness.DecodeResultEntry(c.key, c.entry, c.spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.entry)), "entry_bytes")
		})
	}
}
