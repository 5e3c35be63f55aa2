package scenario

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bluegs/internal/piconet"
)

// TestScatternetSinglePiconetEquivalence: wrapping the paper's flat spec
// into a one-piconet scatternet (interference disabled) must produce a
// distinct fingerprint — the result shape differs (piconet-addressed
// flows) — but metric-identical results: same kernel, same draws, same
// numbers.
func TestScatternetSinglePiconetEquivalence(t *testing.T) {
	flat := Paper(40 * time.Millisecond)
	flat.Duration = 10 * time.Second

	wrapped := flat
	wrapped.GS, wrapped.BE, wrapped.SCO = nil, nil, nil
	wrapped.Piconets = []PiconetSpec{{Name: "pn1", GS: flat.GS, BE: flat.BE, SCO: flat.SCO}}

	if flat.Fingerprint() == wrapped.Fingerprint() {
		t.Fatal("flat and scatternet forms share a fingerprint")
	}

	fres, err := Run(flat)
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	wres, err := Run(wrapped)
	if err != nil {
		t.Fatalf("wrapped run: %v", err)
	}
	if len(fres.Piconets) != 1 || len(wres.Piconets) != 1 {
		t.Fatalf("piconet results: flat %d, wrapped %d (want 1 each)",
			len(fres.Piconets), len(wres.Piconets))
	}
	if fres.Events != wres.Events {
		t.Fatalf("kernel events differ: %d vs %d", fres.Events, wres.Events)
	}
	if len(fres.Flows) != len(wres.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(fres.Flows), len(wres.Flows))
	}
	for i, ff := range fres.Flows {
		wf := wres.Flows[i]
		if ff.Piconet != "" || wf.Piconet != "pn1" {
			t.Fatalf("flow %d piconet labels: %q vs %q", ff.ID, ff.Piconet, wf.Piconet)
		}
		// Normalize the addressing label; everything else must match
		// exactly (the delay stats pointer aside).
		wf.Piconet = ff.Piconet
		ff.Delay, wf.Delay = nil, nil
		if ff != wf {
			t.Fatalf("flow %d differs:\nflat:    %+v\nwrapped: %+v", ff.ID, ff, wf)
		}
	}
	if fres.Slots != wres.Slots {
		t.Fatalf("slot accounts differ: %v vs %v", fres.Slots, wres.Slots)
	}
	if fres.GSPolls != wres.GSPolls || fres.BEPolls != wres.BEPolls || fres.Skipped != wres.Skipped {
		t.Fatal("poll counters differ")
	}
	for slave, kbps := range fres.SlaveKbps {
		if wres.SlaveKbps[slave] != kbps {
			t.Fatalf("slave %d kbps differ: %g vs %g", slave, kbps, wres.SlaveKbps[slave])
		}
	}
}

// TestScatternetValidation covers the spec-form errors.
func TestScatternetValidation(t *testing.T) {
	base := func() Spec {
		return Spec{Piconets: []PiconetSpec{
			{Name: "a", GS: []GSFlow{{ID: 1, Slave: 1, Dir: piconet.Up, Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176}}},
			{Name: "b", BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 30, PacketSize: 176}}},
		}, Duration: time.Second}
	}
	if _, err := Run(base()); err != nil {
		t.Fatalf("valid scatternet rejected: %v", err)
	}

	s := base()
	s.BE = []BEFlow{{ID: 9, Slave: 2, Dir: piconet.Up, RateKbps: 10, PacketSize: 176}}
	if _, err := Run(s); err == nil {
		t.Fatal("flat fields alongside Piconets accepted")
	}

	s = base()
	s.Piconets[1].Name = "a"
	if _, err := Run(s); err == nil {
		t.Fatal("duplicate piconet names accepted")
	}

	s = base()
	s.Piconets[0].GS = append(s.Piconets[0].GS, s.Piconets[0].GS[0])
	if _, err := Run(s); err == nil {
		t.Fatal("duplicate flow id within a piconet accepted")
	}

	s = base()
	s.Timeline = []TimelineEvent{AddBEAt(time.Second/2, BEFlow{ID: 50, Slave: 3, Dir: piconet.Up, RateKbps: 10, PacketSize: 176}).For("nope")}
	if _, err := Run(s); err == nil {
		t.Fatal("timeline targeting an unknown piconet accepted")
	}

	// Reusing a flow id in a different piconet is fine: flows are
	// addressed as (piconet, id).
	s = base()
	s.Timeline = []TimelineEvent{AddBEAt(time.Second/2, BEFlow{ID: 1, Slave: 3, Dir: piconet.Up, RateKbps: 10, PacketSize: 176}).For("a")}
	if _, err := Run(s); err == nil {
		t.Fatal("duplicate flow id within the targeted piconet accepted")
	}
	s.Timeline[0].AddBE.ID = 2
	if _, err := Run(s); err != nil {
		t.Fatalf("fresh flow id rejected: %v", err)
	}
}

// TestScatternetUnnamedPiconetsDefault: empty piconet names default
// positionally ("pn<i+1>") and Run, Fingerprint and the file form must all
// resolve an unnamed piconet to the same name — otherwise a spec could
// fingerprint like its named twin yet fail to run.
func TestScatternetUnnamedPiconetsDefault(t *testing.T) {
	unnamed := Spec{
		Duration: 2 * time.Second,
		Piconets: []PiconetSpec{
			{BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 30, PacketSize: 176}}},
			{BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 30, PacketSize: 176}}},
		},
		Timeline: []TimelineEvent{
			AddBEAt(time.Second, BEFlow{ID: 2, Slave: 2, Dir: piconet.Up, RateKbps: 10, PacketSize: 176}).For("pn2"),
		},
	}
	named := unnamed
	named.Piconets = append([]PiconetSpec(nil), unnamed.Piconets...)
	named.Piconets[0].Name, named.Piconets[1].Name = "pn1", "pn2"

	if unnamed.Fingerprint() != named.Fingerprint() {
		t.Fatal("unnamed piconets fingerprint differently from their defaulted names")
	}
	res, err := Run(unnamed)
	if err != nil {
		t.Fatalf("unnamed scatternet spec does not run: %v", err)
	}
	if _, ok := res.PiconetByName("pn2"); !ok {
		t.Fatalf("defaulted name missing from results: %+v", res.Piconets)
	}
	data, err := Marshal(unnamed)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Piconets[0].Name != "pn1" || back.Piconets[1].Name != "pn2" {
		t.Fatalf("file form lost the defaulted names: %+v", back.Piconets)
	}
	if back.Fingerprint() != unnamed.Fingerprint() {
		t.Fatal("file round trip changed the fingerprint")
	}
}

// TestScatternetRejectionRecordsCarrySubject: a flow event aimed at a
// removed piconet must log the flow and slave it was about.
func TestScatternetRejectionRecordsCarrySubject(t *testing.T) {
	spec := Spec{
		Duration: 2 * time.Second,
		Piconets: []PiconetSpec{
			{Name: "a", BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 30, PacketSize: 176}}},
			{Name: "b", BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 30, PacketSize: 176}}},
		},
		Timeline: []TimelineEvent{
			RemovePiconetAt(500*time.Millisecond, "b"),
			AddGSAt(time.Second, GSFlow{ID: 42, Slave: 3, Dir: piconet.Up,
				Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176}).For("b"),
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec := res.Admissions[len(res.Admissions)-1]
	if rec.Accepted || rec.Op != OpAddGS || rec.Flow != 42 || rec.Slave != 3 || rec.Piconet != "b" {
		t.Fatalf("rejection record lost its subject: %+v", rec)
	}
}

// TestScatternetPiconetChurn drives add_piconet/remove_piconet end to
// end: the added piconet carries traffic from its arrival, the removed
// one freezes, and post-removal events land as rejection records.
func TestScatternetPiconetChurn(t *testing.T) {
	mk := func() PiconetSpec {
		return PiconetSpec{Name: "late", GS: []GSFlow{
			{ID: 1, Slave: 1, Dir: piconet.Up, Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176},
		}}
	}
	spec := Spec{
		Duration: 4 * time.Second,
		Piconets: []PiconetSpec{
			{Name: "base", BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 60, PacketSize: 176}}},
		},
		Timeline: []TimelineEvent{
			AddPiconetAt(1*time.Second, mk()),
			AddBEAt(2*time.Second, BEFlow{ID: 10, Slave: 2, Dir: piconet.Down, RateKbps: 20, PacketSize: 176}).For("late"),
			RemovePiconetAt(3*time.Second, "late"),
			AddBEAt(3500*time.Millisecond, BEFlow{ID: 11, Slave: 3, Dir: piconet.Up, RateKbps: 20, PacketSize: 176}).For("late"),
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Piconets) != 2 {
		t.Fatalf("%d piconet results, want 2", len(res.Piconets))
	}
	late, ok := res.PiconetByName("late")
	if !ok {
		t.Fatal("late piconet missing from results")
	}
	if !late.Removed {
		t.Fatal("late piconet not marked removed")
	}
	// ~2 s of service (1s..3s) at one packet per 20 ms: ≈100 GS packets.
	gs := late.Flows[0]
	if gs.Delivered < 80 || gs.Delivered > 110 {
		t.Fatalf("late GS delivered %d packets, want ≈100 (2 s of service)", gs.Delivered)
	}
	// The BE flow added at 2 s must have run for ~1 s.
	be, found := 0, false
	for _, f := range late.Flows {
		if f.ID == 10 {
			found = true
			be = int(f.Delivered)
		}
	}
	if !found || be == 0 {
		t.Fatalf("timeline BE flow on the added piconet delivered nothing (found=%v)", found)
	}
	// Event log: add accepted, adds accepted, remove accepted, post-
	// removal add rejected.
	var outcomes []string
	for _, a := range res.Admissions {
		outcome := "reject"
		if a.Accepted {
			outcome = "accept"
		}
		outcomes = append(outcomes, a.Op+":"+outcome)
	}
	want := []string{
		OpAddPiconet + ":accept",
		OpAddBE + ":accept",
		OpRemovePiconet + ":accept",
		OpAddBE + ":reject",
	}
	if len(outcomes) != len(want) {
		t.Fatalf("admission log %v, want %v", outcomes, want)
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("admission log %v, want %v", outcomes, want)
		}
	}
	if rec := res.Admissions[3]; rec.Reason != "piconet removed" || rec.Piconet != "late" {
		t.Fatalf("post-removal rejection record: %+v", rec)
	}
	// Per-piconet log slices carry their own records, including the
	// post-removal rejection addressed to them.
	if len(late.Admissions) != 4 {
		t.Fatalf("late piconet log has %d records, want 4 (%+v)", len(late.Admissions), late.Admissions)
	}
}

// TestScatternetInterferenceCouples: the same two-piconet workload must
// see strictly more GS delay (and some retransmissions) with the FH
// coupling than without it, and a one-piconet run with interference
// enabled must match the uncoupled run exactly (no spurious RNG draws).
func TestScatternetInterferenceCouples(t *testing.T) {
	build := func(n int, interference bool) Spec {
		return Scatternet(ScatternetConfig{
			Piconets:       n,
			BEKbps:         60,
			Duration:       5 * time.Second,
			NoInterference: !interference,
		})
	}
	quiet, err := Run(build(2, false))
	if err != nil {
		t.Fatalf("uncoupled: %v", err)
	}
	loud, err := Run(build(2, true))
	if err != nil {
		t.Fatalf("coupled: %v", err)
	}
	if quiet.Slots.Retransmit != 0 {
		t.Fatalf("uncoupled run retransmitted %d slots", quiet.Slots.Retransmit)
	}
	if loud.Slots.Retransmit == 0 {
		t.Fatal("coupled run saw no collisions at all")
	}
	if len(quiet.BoundViolations()) != 0 {
		t.Fatalf("uncoupled scatternet violated bounds: %+v", quiet.BoundViolations())
	}
	worst := func(r *Result) time.Duration {
		var w time.Duration
		for _, f := range r.Flows {
			if f.Class == piconet.Guaranteed && f.DelayMax > w {
				w = f.DelayMax
			}
		}
		return w
	}
	if worst(loud) <= worst(quiet) {
		t.Fatalf("interference did not grow the worst GS delay: %v vs %v", worst(loud), worst(quiet))
	}

	// One piconet: the interference wrapper must be RNG-transparent.
	solo, err := Run(build(1, true))
	if err != nil {
		t.Fatalf("solo coupled: %v", err)
	}
	soloQuiet, err := Run(build(1, false))
	if err != nil {
		t.Fatalf("solo uncoupled: %v", err)
	}
	if solo.Events != soloQuiet.Events {
		t.Fatalf("one-piconet interference changed the event count: %d vs %d", solo.Events, soloQuiet.Events)
	}
	for i := range solo.Flows {
		a, b := solo.Flows[i], soloQuiet.Flows[i]
		a.Delay, b.Delay = nil, nil
		if a != b {
			t.Fatalf("one-piconet interference changed flow %d: %+v vs %+v", a.ID, a, b)
		}
	}
	if solo.Piconets[0].Utilization == 0 {
		t.Fatal("interference-enabled run reports no utilization")
	}
}

// TestBatchTrafficDeterministicAndClose: batched up-flow generation is a
// different (but deterministic) draw order, so metrics shift slightly —
// throughput must stay equivalent while the kernel executes fewer
// events.
func TestBatchTrafficDeterministicAndClose(t *testing.T) {
	base := Paper(40 * time.Millisecond)
	base.Duration = 10 * time.Second

	batched := base
	batched.BatchTraffic = true
	if base.Fingerprint() == batched.Fingerprint() {
		t.Fatal("batching does not enter the fingerprint")
	}

	ref, err := Run(base)
	if err != nil {
		t.Fatalf("unbatched: %v", err)
	}
	got1, err := Run(batched)
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	got2, err := Run(batched)
	if err != nil {
		t.Fatalf("batched rerun: %v", err)
	}
	if got1.Events != got2.Events || got1.Report().String() != got2.Report().String() {
		t.Fatal("batched runs are not deterministic")
	}
	if got1.Events >= ref.Events {
		t.Fatalf("batching did not reduce kernel events: %d vs %d", got1.Events, ref.Events)
	}
	for _, class := range []piconet.Class{piconet.Guaranteed, piconet.BestEffort} {
		a, b := ref.TotalKbps(class), got1.TotalKbps(class)
		if b < a*0.99 || b > a*1.01 {
			t.Fatalf("%v throughput drifted: %.2f vs %.2f kbps", class, a, b)
		}
	}
	if v := got1.BoundViolations(); len(v) != 0 {
		t.Fatalf("batched run violated bounds: %+v", v)
	}
}

// TestScatternetCodecRoundTrip is the multi-piconet codec property test:
// randomized scatternet specs — piconet arrays, interference parameters,
// piconet-addressed timelines with piconet churn — must round-trip
// through Marshal/Unmarshal fingerprint-identically.
func TestScatternetCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dirs := []piconet.Direction{piconet.Up, piconet.Down}
	for round := 0; round < 100; round++ {
		nPN := 1 + rng.Intn(4)
		var names []string
		spec := Spec{
			Name:        "fuzz-scatternet",
			Duration:    time.Duration(1+rng.Intn(20)) * time.Second,
			Seed:        rng.Int63n(1 << 30),
			DelayTarget: time.Duration(20+rng.Intn(40)) * time.Millisecond,
			ARQ:         rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			spec.Interference = InterferenceSpec{
				Enabled:  true,
				Channels: 20 + rng.Intn(100),
			}
		}
		spec.BatchTraffic = rng.Intn(2) == 0
		for i := 0; i < nPN; i++ {
			ps := PiconetSpec{Name: string(rune('a' + i))}
			names = append(names, ps.Name)
			id := piconet.FlowID(1)
			for k := 0; k <= rng.Intn(3); k++ {
				ps.GS = append(ps.GS, GSFlow{
					ID: id, Slave: piconet.SlaveID(1 + k), Dir: dirs[rng.Intn(2)],
					Interval: time.Duration(10+rng.Intn(30)) * time.Millisecond,
					MinSize:  100 + rng.Intn(50), MaxSize: 150 + rng.Intn(50),
					Phase: time.Duration(rng.Intn(10)) * time.Millisecond,
				})
				id++
			}
			for k := 0; k <= rng.Intn(2); k++ {
				ps.BE = append(ps.BE, BEFlow{
					ID: id, Slave: piconet.SlaveID(5 + k), Dir: dirs[rng.Intn(2)],
					RateKbps: 10 + 50*rng.Float64(), PacketSize: 100 + rng.Intn(100),
				})
				id++
			}
			spec.Piconets = append(spec.Piconets, ps)
		}
		nextID := piconet.FlowID(100)
		for e := 0; e < rng.Intn(4); e++ {
			at := time.Duration(rng.Int63n(int64(spec.Duration)))
			target := names[rng.Intn(len(names))]
			switch rng.Intn(4) {
			case 0:
				spec.Timeline = append(spec.Timeline, AddGSAt(at, GSFlow{
					ID: nextID, Slave: 7, Dir: dirs[rng.Intn(2)],
					Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
				}).For(target))
				nextID++
			case 1:
				spec.Timeline = append(spec.Timeline, AddBEAt(at, BEFlow{
					ID: nextID, Slave: 6, Dir: dirs[rng.Intn(2)],
					RateKbps: 20, PacketSize: 176,
				}).For(target))
				nextID++
			case 2:
				late := fmt.Sprintf("late-%d-%d", round, e)
				spec.Timeline = append(spec.Timeline, AddPiconetAt(at, PiconetSpec{
					Name: late,
					BE:   []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 15, PacketSize: 176}},
				}))
				names = append(names, late)
			case 3:
				spec.Timeline = append(spec.Timeline, RemovePiconetAt(at, names[rng.Intn(len(names))]))
			}
		}

		data, err := Marshal(spec)
		if err != nil {
			t.Fatalf("round %d: Marshal: %v\nspec: %+v", round, err, spec)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("round %d: Unmarshal: %v\n%s", round, err, data)
		}
		if spec.Fingerprint() != back.Fingerprint() {
			t.Fatalf("round %d: fingerprint drift\n%s", round, data)
		}
	}
}
