package segmentation

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bluegs/internal/baseband"
)

func TestBestFitPaperExamples(t *testing.T) {
	// Allowed types DH1 (27) and DH3 (183), as in the paper's evaluation.
	tests := []struct {
		name string
		size int
		want []baseband.PacketType
	}{
		{"tiny fits DH1", 10, []baseband.PacketType{baseband.TypeDH1}},
		{"exactly DH1", 27, []baseband.PacketType{baseband.TypeDH1}},
		{"28 needs DH3", 28, []baseband.PacketType{baseband.TypeDH3}},
		{"GS min packet 144 one DH3", 144, []baseband.PacketType{baseband.TypeDH3}},
		{"GS max packet 176 one DH3", 176, []baseband.PacketType{baseband.TypeDH3}},
		{"exactly DH3", 183, []baseband.PacketType{baseband.TypeDH3}},
		{"remainder fits DH1", 200, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH1}},
		{"remainder needs DH3", 300, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3}},
		{"two DH3 exactly", 366, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3}},
		{"two DH3 plus DH1", 380, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3, baseband.TypeDH1}},
	}
	var policy BestFit
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			plan, err := policy.Segment(tt.size, baseband.PaperTypes)
			if err != nil {
				t.Fatalf("Segment(%d): %v", tt.size, err)
			}
			if len(plan) != len(tt.want) {
				t.Fatalf("Segment(%d) = %v, want types %v", tt.size, plan, tt.want)
			}
			for i, seg := range plan {
				if seg.Type != tt.want[i] {
					t.Fatalf("Segment(%d)[%d] = %v, want %v", tt.size, i, seg.Type, tt.want[i])
				}
			}
			if got := plan.TotalBytes(); got != tt.size {
				t.Fatalf("plan carries %d bytes, want %d", got, tt.size)
			}
		})
	}
}

func TestBestFitErrors(t *testing.T) {
	var policy BestFit
	if _, err := policy.Segment(0, baseband.PaperTypes); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size 0: err = %v", err)
	}
	if _, err := policy.Segment(-5, baseband.PaperTypes); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative size: err = %v", err)
	}
	scoOnly := baseband.NewTypeSet(baseband.TypeHV3)
	if _, err := policy.Segment(10, scoOnly); !errors.Is(err, ErrNoACLTypes) {
		t.Fatalf("SCO-only set: err = %v", err)
	}
	if _, err := policy.Segment(10, baseband.TypeSet(0)); !errors.Is(err, ErrNoACLTypes) {
		t.Fatalf("empty set: err = %v", err)
	}
}

func TestGreedyLargest(t *testing.T) {
	var policy GreedyLargest
	plan, err := policy.Segment(200, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	// Greedy uses DH3 even for the 17-byte remainder.
	if len(plan) != 2 || plan[0].Type != baseband.TypeDH3 || plan[1].Type != baseband.TypeDH3 {
		t.Fatalf("greedy plan = %v, want two DH3", plan)
	}
	if plan.TotalBytes() != 200 {
		t.Fatalf("plan carries %d bytes, want 200", plan.TotalBytes())
	}
	// Greedy consumes at least as many slots as best-fit.
	bf, err := BestFit{}.Segment(200, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("BestFit.Segment: %v", err)
	}
	if plan.Slots() < bf.Slots() {
		t.Fatalf("greedy slots %d < best-fit slots %d", plan.Slots(), bf.Slots())
	}
}

func TestPlanSlotsAndString(t *testing.T) {
	plan := Plan{
		{Type: baseband.TypeDH3, Bytes: 183},
		{Type: baseband.TypeDH1, Bytes: 17},
	}
	if got := plan.Slots(); got != 4 {
		t.Fatalf("Slots() = %d, want 4", got)
	}
	if got := plan.String(); got != "[DH3:183 DH1:17]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCount(t *testing.T) {
	n, err := Count(BestFit{}, 200, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if n != 2 {
		t.Fatalf("Count(200) = %d, want 2", n)
	}
	if _, err := Count(nil, 200, baseband.PaperTypes); !errors.Is(err, ErrNilPolicy) {
		t.Fatalf("nil policy: err = %v", err)
	}
}

func TestMinPollEfficiencyPaper(t *testing.T) {
	// Paper §4.1: over packet sizes 144..176 with DH1+DH3 and best-fit,
	// every packet is one DH3, so eta_min = 144 bytes at size 144.
	eff, err := MinPollEfficiency(BestFit{}, 144, 176, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MinPollEfficiency: %v", err)
	}
	if eff.Size != 144 || eff.Segments != 1 || eff.BytesPerPoll != 144 {
		t.Fatalf("eta_min = %+v, want {144, 1, 144}", eff)
	}
}

func TestMinPollEfficiencyBoundaryDrop(t *testing.T) {
	// Around a segment-count boundary the efficiency drops: size 183 is
	// one DH3 (eta 183), size 184 is DH3+DH1 (eta 92). The minimum over
	// [150, 250] must be at 184.
	eff, err := MinPollEfficiency(BestFit{}, 150, 250, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MinPollEfficiency: %v", err)
	}
	if eff.Size != 184 || eff.Segments != 2 {
		t.Fatalf("eta_min = %+v, want worst at size 184 with 2 segments", eff)
	}
	if math.Abs(eff.BytesPerPoll-92) > 1e-9 {
		t.Fatalf("eta_min = %v, want 92", eff.BytesPerPoll)
	}
}

func TestMinPollEfficiencyErrors(t *testing.T) {
	if _, err := MinPollEfficiency(BestFit{}, 0, 10, baseband.PaperTypes); !errors.Is(err, ErrBadRange) {
		t.Fatalf("min 0: err = %v", err)
	}
	if _, err := MinPollEfficiency(BestFit{}, 20, 10, baseband.PaperTypes); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted range: err = %v", err)
	}
	if _, err := MinPollEfficiency(nil, 1, 10, baseband.PaperTypes); !errors.Is(err, ErrNilPolicy) {
		t.Fatalf("nil policy: err = %v", err)
	}
}

func TestMaxSegmentSlots(t *testing.T) {
	// GS flows 144..176 with DH1+DH3: every segment is a DH3 -> 3 slots.
	slots, err := MaxSegmentSlots(BestFit{}, 144, 176, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MaxSegmentSlots: %v", err)
	}
	if slots != 3 {
		t.Fatalf("MaxSegmentSlots = %d, want 3", slots)
	}
	// Packets up to 27 bytes only ever use DH1 -> 1 slot.
	slots, err = MaxSegmentSlots(BestFit{}, 1, 27, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MaxSegmentSlots: %v", err)
	}
	if slots != 1 {
		t.Fatalf("MaxSegmentSlots = %d, want 1", slots)
	}
}

// segmentOnly hides a built-in policy's Appender fast path, so WorstCase
// takes its Segment fallback.
type segmentOnly struct{ Policy }

// shortPolicy drops the last byte of every packet.
type shortPolicy struct{}

func (shortPolicy) Name() string { return "short" }

func (shortPolicy) Segment(size int, allowed baseband.TypeSet) (Plan, error) {
	return Plan{{Type: baseband.TypeDH1, Bytes: size - 1}}, nil
}

// TestWorstCaseMatchesSeparateWalks: the fused pass equals a per-size walk
// that counts segments with Count and takes the largest segment of each
// freshly allocated plan, for both built-in policies with and without the
// Appender path; invalid plans still fail.
func TestWorstCaseMatchesSeparateWalks(t *testing.T) {
	sets := []baseband.TypeSet{baseband.PaperTypes, baseband.ACLAll, baseband.ACL1Slot, baseband.ACLMediumRate}
	policies := []Policy{BestFit{}, GreedyLargest{}, segmentOnly{BestFit{}}, segmentOnly{GreedyLargest{}}}
	for _, p := range policies {
		for _, allowed := range sets {
			for _, r := range [][2]int{{1, 1}, {1, 27}, {17, 400}, {144, 176}, {183, 184}, {300, 1000}} {
				var want Worst
				for size := r[0]; size <= r[1]; size++ {
					n, err := Count(p, size, allowed)
					if err != nil {
						t.Fatalf("Count: %v", err)
					}
					if eta := float64(size) / float64(n); size == r[0] || eta < want.BytesPerPoll {
						want.Efficiency = Efficiency{Size: size, Segments: n, BytesPerPoll: eta}
					}
					plan, _ := p.Segment(size, allowed)
					for _, s := range plan {
						want.MaxSlots = max(want.MaxSlots, s.Type.Slots())
					}
				}
				got, err := WorstCase(p, r[0], r[1], allowed)
				if err != nil || got != want {
					t.Fatalf("WorstCase(%s, %v, %v) = %+v, %v; want %+v", p.Name(), r, allowed, got, err, want)
				}
			}
		}
	}
	if _, err := WorstCase(shortPolicy{}, 10, 20, baseband.PaperTypes); !errors.Is(err, ErrShortPlan) {
		t.Fatalf("short plan: err = %v", err)
	}
	if _, err := WorstCase(BestFit{}, 1, 10, baseband.NewTypeSet(baseband.TypeHV3)); !errors.Is(err, ErrNoACLTypes) {
		t.Fatalf("no ACL types: err = %v", err)
	}
}

// TestPropertyPlansCoverExactly: any policy plan carries exactly the packet
// size, every segment respects its type capacity, and only allowed ACL types
// appear.
func TestPropertyPlansCoverExactly(t *testing.T) {
	policies := []Policy{BestFit{}, GreedyLargest{}}
	f := func(sizeRaw uint16, setBits uint8, policyIdx uint8) bool {
		size := 1 + int(sizeRaw%2000)
		sets := []baseband.TypeSet{
			baseband.PaperTypes,
			baseband.ACLAll,
			baseband.ACLHighRate,
			baseband.ACLMediumRate,
			baseband.ACL1Slot,
		}
		allowed := sets[int(setBits)%len(sets)]
		policy := policies[int(policyIdx)%len(policies)]
		plan, err := policy.Segment(size, allowed)
		if err != nil {
			return false
		}
		if plan.TotalBytes() != size {
			return false
		}
		for _, seg := range plan {
			if !allowed.Contains(seg.Type) || !seg.Type.IsACL() {
				return false
			}
			if seg.Bytes <= 0 || seg.Bytes > seg.Type.Payload() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBestFitNeverWorseThanGreedy: best-fit never uses more slots
// than greedy-largest (it may use strictly fewer on small remainders).
func TestPropertyBestFitNeverWorseThanGreedy(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := 1 + int(sizeRaw%3000)
		bf, err1 := BestFit{}.Segment(size, baseband.ACLAll)
		gr, err2 := GreedyLargest{}.Segment(size, baseband.ACLAll)
		if err1 != nil || err2 != nil {
			return false
		}
		return bf.Slots() <= gr.Slots()
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEfficiencyIsMinimum: eta_min is <= eta(L) for every L in the
// range (verifying the scan really finds the minimum of eq. 4).
func TestPropertyEfficiencyIsMinimum(t *testing.T) {
	f := func(a, b uint8) bool {
		lo, hi := 1+int(a), 1+int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		eff, err := MinPollEfficiency(BestFit{}, lo, hi, baseband.PaperTypes)
		if err != nil {
			return false
		}
		for size := lo; size <= hi; size++ {
			n, err := Count(BestFit{}, size, baseband.PaperTypes)
			if err != nil {
				return false
			}
			if float64(size)/float64(n) < eff.BytesPerPoll-1e-9 {
				return false
			}
		}
		return eff.Size >= lo && eff.Size <= hi
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBestFitSegment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (BestFit{}).Segment(1500, baseband.ACLAll); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPollEfficiency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinPollEfficiency(BestFit{}, 144, 176, baseband.PaperTypes); err != nil {
			b.Fatal(err)
		}
	}
}
