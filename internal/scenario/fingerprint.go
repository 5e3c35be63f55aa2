package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// WithDefaults returns the spec with every zero field replaced by the
// default scenario.Run would apply. Run itself uses it, so a spec and its
// defaulted twin are guaranteed to describe the same simulation — which is
// what lets Fingerprint (and the run cache built on it) treat them as one.
func (s Spec) WithDefaults() Spec {
	if s.Duration <= 0 {
		s.Duration = 30 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Allowed.Empty() {
		s.Allowed = baseband.PaperTypes
	}
	if s.Mode == 0 {
		s.Mode = core.VariableInterval
	}
	if s.BEPoller == "" {
		// The empty kind runs PFP (see NewBEPoller): normalize so the
		// implicit and explicit spellings of the same simulation share
		// one fingerprint and cache entry.
		s.BEPoller = BEPFP
	}
	if s.DelayTarget <= 0 {
		s.DelayTarget = 40 * time.Millisecond
	}
	s.Interference = s.Interference.withDefaults()
	// The admission-derating knobs are inert without the interference
	// coupling, and the static override is inert without the knob or
	// outside (0,1): normalize the inert spellings to zero so equivalent
	// specs share one fingerprint.
	if !s.Interference.Enabled {
		s.InterferenceAwareAdmission = false
	}
	if !s.InterferenceAwareAdmission || s.AdmissionDerate <= 0 || s.AdmissionDerate >= 1 {
		s.AdmissionDerate = 0
	}
	if s.scatternet() {
		s.Piconets = withPiconetNames(s.Piconets)
		// Resolve defaulted timeline targets to the first piconet's
		// name, so an explicit and an implicit address of the same
		// piconet describe — and fingerprint as — the same simulation.
		// Flat specs resolve to "" and stay untouched.
		def := s.Piconets[0].Name
		// Scatternet-level operations (piconet churn and routes) stay
		// unaddressed: they act on the scatternet, not a piconet.
		global := func(ev TimelineEvent) bool {
			return ev.AddPiconet != nil || ev.RemovePiconet != "" ||
				ev.AddRoute != nil || ev.RemoveRoute != piconet.None
		}
		for i, ev := range s.Timeline {
			if ev.Piconet != "" || global(ev) {
				continue
			}
			tl := append([]TimelineEvent(nil), s.Timeline...)
			for j := i; j < len(tl); j++ {
				if tl[j].Piconet == "" && !global(tl[j]) {
					tl[j].Piconet = def
				}
			}
			s.Timeline = tl
			break
		}
	}
	// Routes: resolve the defaulted source, budget and label, so implicit
	// and explicit spellings of the same route fingerprint identically.
	normRoute := func(rt RouteSpec) RouteSpec {
		if rt.Name == "" {
			rt.Name = fmt.Sprintf("route-%d", rt.ID)
		}
		if rt.Source == "" {
			rt.Source = s.defaultPiconetName()
		}
		if rt.DelayTarget <= 0 {
			rt.DelayTarget = s.DelayTarget
		}
		return rt
	}
	if len(s.Routes) > 0 {
		rts := make([]RouteSpec, len(s.Routes))
		for i, rt := range s.Routes {
			rts[i] = normRoute(rt)
		}
		s.Routes = rts
	}
	for i, ev := range s.Timeline {
		if ev.AddRoute == nil {
			continue
		}
		tl := append([]TimelineEvent(nil), s.Timeline...)
		for j := i; j < len(tl); j++ {
			if tl[j].AddRoute != nil {
				rt := normRoute(*tl[j].AddRoute)
				tl[j].AddRoute = &rt
			}
		}
		s.Timeline = tl
		break
	}
	// Recovery: a policy implies supervision; the degrade factor and
	// handoff target are inert outside their policies. Normalize so the
	// implicit and explicit spellings fingerprint identically.
	if s.Recovery.Supervision < 0 {
		s.Recovery.Supervision = 0
	}
	if s.Recovery.Policy != faults.PolicyNone && s.Recovery.Supervision == 0 {
		s.Recovery.Supervision = 3
	}
	if s.Recovery.Policy == faults.PolicyDegrade {
		if s.Recovery.DegradeFactor <= 1 {
			s.Recovery.DegradeFactor = 4
		}
	} else {
		s.Recovery.DegradeFactor = 0
	}
	if s.Recovery.Policy != faults.PolicyHandoff {
		s.Recovery.HandoffTarget = ""
	}
	// Fault-plan piconet names resolve to the first piconet, like
	// defaulted timeline targets (a no-op for flat specs, whose only
	// piconet is named "").
	s.Faults = s.Faults.Resolve(s.defaultPiconetName())
	return s
}

// Fingerprint is the SHA-256 of the spec's v2 encoding, hex encoded: a
// content address for the complete run specification (spec plus seed plus
// horizon). The harness cache keys on it, combined with a code-version
// salt. Two specs share a fingerprint exactly when their defaulted forms
// encode identically with the report labels (the spec and route names)
// left out; the codec's only-when-present fields keep the fingerprints of
// specs that predate a feature unchanged by it.
//
// A spec the codec refuses hashes its error text instead, under a prefix
// no JSON encoding starts with. Run refuses every such spec, so nothing
// is ever cached under that key.
func (s Spec) Fingerprint() string {
	data, err := fingerprintBytes(s.WithDefaults())
	if err != nil {
		data = []byte("refused\n" + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// fingerprintBytes is the compact v2 encoding of a defaulted spec with its
// report labels cleared: the bytes Fingerprint hashes.
func fingerprintBytes(s Spec) ([]byte, error) {
	fs, err := encodeV2(s)
	if err != nil {
		return nil, err
	}
	// fs is freshly built, so the labels clear without touching s.
	fs.Name = ""
	for i := range fs.Routes {
		fs.Routes[i].Name = ""
	}
	for _, ev := range fs.Timeline {
		if ev.AddRoute != nil {
			ev.AddRoute.Name = ""
		}
	}
	data, err := json.Marshal(fs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return data, nil
}
