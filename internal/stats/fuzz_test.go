package stats

import (
	"bytes"
	"testing"
	"time"
)

// FuzzStatsWire feeds arbitrary bytes to every accumulator decoder. None
// may panic; an accepted payload must re-encode to the identical bytes and
// keep accepting Adds. The seed corpus under testdata/fuzz/FuzzStatsWire
// holds encodings of each type, a reservoir past its cap, special floats,
// and near misses of the rejected states.
func FuzzStatsWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Welford
		if w.GobDecode(data) == nil {
			reencode(t, data, w)
			for i := 0; i < 100; i++ {
				w.Add(fuzzObservation(i))
			}
		}
		var s Sample
		if s.GobDecode(data) == nil {
			reencode(t, data, s)
			for i := 0; i < 100; i++ {
				s.Add(fuzzObservation(i))
			}
			s.Quantile(0.5)
		}
		var d DurationStats
		if d.GobDecode(data) == nil {
			reencode(t, data, d)
			for i := 0; i < 100; i++ {
				d.Add(time.Duration(fuzzObservation(i) * 1e6))
			}
			d.Quantile(0.99)
		}
	})
}

func reencode(t *testing.T, data []byte, v interface{ GobEncode() ([]byte, error) }) {
	t.Helper()
	got, err := v.GobEncode()
	if err != nil {
		t.Fatalf("re-encode %T: %v", v, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%T re-encodes differently:\n got %x\nwant %x", v, got, data)
	}
}

func fuzzObservation(i int) float64 { return float64(i)*0.37 - 5 }
