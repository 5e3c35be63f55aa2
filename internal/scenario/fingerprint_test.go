package scenario

import (
	"strings"
	"testing"
	"time"

	"bluegs/internal/faults"
)

func TestCanonicalDefaultsInvariant(t *testing.T) {
	// A spec and its explicitly defaulted twin describe the same
	// simulation, so they must share a fingerprint.
	bare := Paper(40 * time.Millisecond)
	bare.Duration, bare.Seed = 0, 0
	full := bare
	full.Duration, full.Seed = 30*time.Second, 1
	if bare.Fingerprint() != full.Fingerprint() {
		t.Fatal("defaulted specs fingerprint differently")
	}
	if bare.Fingerprint() != bare.WithDefaults().Fingerprint() {
		t.Fatal("a spec and its WithDefaults twin fingerprint differently")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Paper(40 * time.Millisecond)
	base.Duration = 10 * time.Second
	fp := base.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}

	mutate := map[string]func(*Spec){
		"seed":      func(s *Spec) { s.Seed = 2 },
		"duration":  func(s *Spec) { s.Duration = 11 * time.Second },
		"target":    func(s *Spec) { s.DelayTarget = 42 * time.Millisecond },
		"poller":    func(s *Spec) { s.BEPoller = BERoundRobin },
		"radio":     func(s *Spec) { s.Radio = BERRadio(1e-5) },
		"ber-rate":  func(s *Spec) { s.Radio = BERRadio(2e-5) },
		"arq":       func(s *Spec) { s.ARQ = true },
		"gs-flow":   func(s *Spec) { s.GS[0].MaxSize = 180 },
		"be-flow":   func(s *Spec) { s.BE[0].RateKbps = 42 },
		"gs-phase":  func(s *Spec) { s.GS[1].Phase = 6 * time.Millisecond },
		"dir-aware": func(s *Spec) { s.DirectionAware = true },
		"interference": func(s *Spec) {
			s.Interference.Enabled = true
		},
		"iaa": func(s *Spec) {
			s.Interference.Enabled = true
			s.InterferenceAwareAdmission = true
		},
		"static-derate": func(s *Spec) {
			s.Interference.Enabled = true
			s.InterferenceAwareAdmission = true
			s.AdmissionDerate = 0.9
		},
	}
	seen := map[string]string{fp: "base"}
	for name, f := range mutate {
		spec := base
		spec.GS = append([]GSFlow(nil), base.GS...)
		spec.BE = append([]BEFlow(nil), base.BE...)
		f(&spec)
		got := spec.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Fatalf("mutation %q collided with %q", name, prev)
		}
		seen[got] = name
	}
}

func TestFingerprintIgnoresLabels(t *testing.T) {
	a := Paper(40 * time.Millisecond)
	b := a
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Name must not enter the fingerprint")
	}
}

// TestCanonicalDeratingKnobs: the interference-aware admission fields
// enter the fingerprint, but only in the combinations that change the
// simulation — a flat (derating-off) spec keeps one fingerprint no matter
// how the inert knobs are set.
func TestCanonicalDeratingKnobs(t *testing.T) {
	flat := Paper(40 * time.Millisecond)
	data, err := Marshal(flat.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"interference_aware_admission"`, `"admission_derate"`} {
		if strings.Contains(string(data), key) {
			t.Fatalf("flat spec encodes the inert knob %s:\n%s", key, data)
		}
	}

	// Interference-aware admission without the interference coupling is
	// inert and must normalise away.
	inert := flat
	inert.InterferenceAwareAdmission = true
	inert.AdmissionDerate = 0.9
	if inert.Fingerprint() != flat.Fingerprint() {
		t.Fatal("iaa without Interference.Enabled must not change the fingerprint")
	}

	// An out-of-range static derate normalises to 0 (use the medium
	// estimate) without erasing the iaa flag itself.
	on := flat
	on.Interference.Enabled = true
	on.InterferenceAwareAdmission = true
	wild := on
	wild.AdmissionDerate = 1.5
	if wild.Fingerprint() != on.Fingerprint() {
		t.Fatal("out-of-range AdmissionDerate must normalise to the estimate default")
	}
	off := on
	off.InterferenceAwareAdmission = false
	if on.Fingerprint() == off.Fingerprint() {
		t.Fatal("enabled iaa does not enter the fingerprint")
	}
	static := on
	static.AdmissionDerate = 0.875
	if static.Fingerprint() == on.Fingerprint() {
		t.Fatal("a static derate of 0.875 fingerprints like the medium estimate")
	}
}

func TestCanonicalMentionsRadioParameters(t *testing.T) {
	s := Paper(40 * time.Millisecond)
	s.Radio = BERRadio(1e-5)
	other := s
	other.Radio = BERRadio(2e-5)
	if s.Fingerprint() == other.Fingerprint() {
		t.Fatal("the fingerprint loses the BER parameter")
	}
	if s.Fingerprint() == Paper(40*time.Millisecond).Fingerprint() {
		t.Fatal("a BER radio fingerprints like the ideal channel")
	}
}

// TestCanonicalFaultFreeStability: the fault plan, the recovery block and
// the move_flow event encode only when present, so every pre-existing
// fault-free spec keeps its exact fingerprint — and its cache entries move
// only via the code-version salt, never silently.
func TestCanonicalFaultFreeStability(t *testing.T) {
	for _, spec := range []Spec{
		Paper(40 * time.Millisecond),
		Baseline(BEPFP),
		Scatternet(ScatternetConfig{}),
	} {
		base := spec.Fingerprint()
		data, err := Marshal(spec.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{`"faults"`, `"recovery"`, `"move_flow"`} {
			if strings.Contains(string(data), banned) {
				t.Fatalf("%s: fault-free encoding contains %s:\n%s", spec.Name, banned, data)
			}
		}

		// Each fault feature must be semantically relevant: adding it
		// moves the fingerprint, stripping it restores the original.
		faulted := spec
		faulted.Faults = faults.Plan{Outages: []faults.LinkOutage{{Slave: 1, Start: time.Second, End: 2 * time.Second}}}
		if faulted.Fingerprint() == base {
			t.Fatalf("%s: an outage plan did not change the fingerprint", spec.Name)
		}
		recovered := spec
		recovered.Recovery = RecoverySpec{Supervision: 3, Policy: faults.PolicyDegrade}
		if recovered.Fingerprint() == base {
			t.Fatalf("%s: a recovery policy did not change the fingerprint", spec.Name)
		}
		moved := spec
		moved.Timeline = append([]TimelineEvent(nil), spec.Timeline...)
		moved.Timeline = append(moved.Timeline, MoveFlowAt(time.Second, 1, "elsewhere"))
		if moved.Fingerprint() == base {
			t.Fatalf("%s: a move_flow event did not change the fingerprint", spec.Name)
		}
		if spec.Fingerprint() != base {
			t.Fatalf("%s: fingerprint unstable across repeated renderings", spec.Name)
		}
	}
}
