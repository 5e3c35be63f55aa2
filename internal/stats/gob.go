package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Gob support for the accumulator types, so completed measurements can be
// persisted (the harness run cache stores scenario results on disk). Each
// GobEncode payload is a fixed little-endian binary layout, so decoding a
// cached result builds no gob decoder per value:
//
//	Welford:       version, n, mean, m2, min, max (u64 each, floats as bits)
//	Sample:        version, sorted (0 or 1), cap (zig-zag varint), seen (u64),
//	               rnd (u64), count (uvarint), count × value (u64 float bits)
//	DurationStats: version, Welford, Sample
//
// The encodings capture the complete internal state — including the
// reservoir RNG state of Sample — so a decoded accumulator behaves
// bit-identically to the original under further Adds, and round-tripping
// preserves every statistic exactly (float64 bit patterns, NaN payloads
// and -0 included). Decoding is strict: a truncated payload, trailing
// bytes, an unknown version or flag, a non-minimal varint, or a state Add
// cannot continue from is an error, so every accepted payload re-encodes
// to the same bytes. Changing the layout invalidates persisted entries:
// bump the version bytes, and the harness cache footer magic with them.

const (
	welfordWireVersion       = 1
	sampleWireVersion        = 1
	durationStatsWireVersion = 1
)

// welfordWireSize is the fixed size of an encoded Welford.
const welfordWireSize = 1 + 5*8

var (
	errTruncated = errors.New("truncated payload")
	errTrailing  = errors.New("trailing bytes")
)

// GobEncode implements gob.GobEncoder.
func (w Welford) GobEncode() ([]byte, error) {
	return w.appendWire(make([]byte, 0, welfordWireSize)), nil
}

// GobDecode implements gob.GobDecoder.
func (w *Welford) GobDecode(data []byte) error {
	dec, rest, err := decodeWelford(data)
	if err == nil && len(rest) != 0 {
		err = errTrailing
	}
	if err != nil {
		return fmt.Errorf("stats: welford: %w", err)
	}
	*w = dec
	return nil
}

func (w *Welford) appendWire(b []byte) []byte {
	b = append(b, welfordWireVersion)
	b = binary.LittleEndian.AppendUint64(b, w.n)
	for _, x := range [...]float64{w.mean, w.m2, w.min, w.max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeWelford reads one encoded Welford off the front of data.
func decodeWelford(data []byte) (Welford, []byte, error) {
	if len(data) < welfordWireSize {
		return Welford{}, nil, errTruncated
	}
	if data[0] != welfordWireVersion {
		return Welford{}, nil, fmt.Errorf("unknown version %d", data[0])
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:])) }
	w := Welford{n: binary.LittleEndian.Uint64(data[1:]), mean: f(1), m2: f(2), min: f(3), max: f(4)}
	return w, data[welfordWireSize:], nil
}

// GobEncode implements gob.GobEncoder.
func (s Sample) GobEncode() ([]byte, error) {
	return s.appendWire(make([]byte, 0, s.wireSizeBound())), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Sample) GobDecode(data []byte) error {
	dec, err := decodeSample(data)
	if err != nil {
		return fmt.Errorf("stats: sample: %w", err)
	}
	*s = dec
	return nil
}

// wireSizeBound is an upper bound on the encoded size of s.
func (s *Sample) wireSizeBound() int {
	return 2 + 2*binary.MaxVarintLen64 + 16 + 8*len(s.values)
}

func (s *Sample) appendWire(b []byte) []byte {
	var sorted byte
	if s.sorted {
		sorted = 1
	}
	b = append(b, sampleWireVersion, sorted)
	b = binary.AppendVarint(b, int64(s.cap))
	b = binary.LittleEndian.AppendUint64(b, s.seen)
	b = binary.LittleEndian.AppendUint64(b, s.rnd)
	b = binary.AppendUvarint(b, uint64(len(s.values)))
	for _, x := range s.values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeSample reads an encoded Sample that spans all of data.
func decodeSample(data []byte) (Sample, error) {
	if len(data) < 2 {
		return Sample{}, errTruncated
	}
	if data[0] != sampleWireVersion {
		return Sample{}, fmt.Errorf("unknown version %d", data[0])
	}
	if data[1] > 1 {
		return Sample{}, fmt.Errorf("unknown sorted flag %d", data[1])
	}
	s := Sample{sorted: data[1] == 1}
	rest := data[2:]
	c, k := binary.Varint(rest)
	if err := checkVarint(rest, k); err != nil {
		return Sample{}, err
	}
	if s.cap = int(c); int64(s.cap) != c {
		return Sample{}, fmt.Errorf("cap %d overflows int", c)
	}
	rest = rest[k:]
	if len(rest) < 16 {
		return Sample{}, errTruncated
	}
	s.seen = binary.LittleEndian.Uint64(rest)
	s.rnd = binary.LittleEndian.Uint64(rest[8:])
	rest = rest[16:]
	n, k := binary.Uvarint(rest)
	if err := checkVarint(rest, k); err != nil {
		return Sample{}, err
	}
	rest = rest[k:]
	// Bound the count by the bytes left before allocating for it.
	if n > uint64(len(rest))/8 {
		return Sample{}, fmt.Errorf("count %d exceeds the %d bytes left", n, len(rest))
	}
	if uint64(len(rest)) != 8*n {
		return Sample{}, errTrailing
	}
	// States Add cannot continue from: fewer observations seen than
	// retained, an overfull reservoir, or a count so large that a further
	// Add wraps it to zero and divides by it.
	switch {
	case s.seen < n:
		return Sample{}, fmt.Errorf("seen %d below the %d retained values", s.seen, n)
	case s.cap > 0 && n > uint64(s.cap):
		return Sample{}, fmt.Errorf("%d retained values exceed cap %d", n, s.cap)
	case s.seen > math.MaxInt64:
		return Sample{}, fmt.Errorf("seen %d out of range", s.seen)
	}
	if n > 0 {
		s.values = make([]float64, n)
		for i := range s.values {
			s.values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		if s.sorted && !slices.IsSorted(s.values) {
			return Sample{}, errors.New("values flagged sorted are not")
		}
	}
	return s, nil
}

// checkVarint vets the byte count k a binary.Varint or binary.Uvarint call
// returned for data: it must have read a complete, minimally encoded value,
// so the field re-encodes to the same bytes.
func checkVarint(data []byte, k int) error {
	switch {
	case k == 0:
		return errTruncated
	case k < 0:
		return errors.New("varint overflows 64 bits")
	case k > 1 && data[k-1] == 0:
		return errors.New("non-minimal varint")
	}
	return nil
}

// GobEncode implements gob.GobEncoder.
func (d DurationStats) GobEncode() ([]byte, error) {
	b := make([]byte, 0, 1+welfordWireSize+d.s.wireSizeBound())
	b = append(b, durationStatsWireVersion)
	b = d.w.appendWire(b)
	return d.s.appendWire(b), nil
}

// GobDecode implements gob.GobDecoder.
func (d *DurationStats) GobDecode(data []byte) error {
	dec, err := decodeDurationStats(data)
	if err != nil {
		return fmt.Errorf("stats: duration stats: %w", err)
	}
	*d = dec
	return nil
}

func decodeDurationStats(data []byte) (DurationStats, error) {
	if len(data) < 1 {
		return DurationStats{}, errTruncated
	}
	if data[0] != durationStatsWireVersion {
		return DurationStats{}, fmt.Errorf("unknown version %d", data[0])
	}
	w, rest, err := decodeWelford(data[1:])
	if err != nil {
		return DurationStats{}, fmt.Errorf("welford: %w", err)
	}
	s, err := decodeSample(rest)
	if err != nil {
		return DurationStats{}, fmt.Errorf("sample: %w", err)
	}
	return DurationStats{w: w, s: s}, nil
}
