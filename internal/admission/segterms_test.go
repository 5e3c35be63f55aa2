package admission

import (
	"reflect"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/segmentation"
	"bluegs/internal/tspec"
)

// TestMemoisedParamsMatchDeriveParams: over a grid of packet-size ranges,
// allowed sets, rates and directions, parameters derived through a
// controller's memo (on a miss and on a hit) equal an uncached
// DeriveParams for both built-in policies.
func TestMemoisedParamsMatchDeriveParams(t *testing.T) {
	sets := []baseband.TypeSet{
		baseband.PaperTypes, baseband.ACLAll, baseband.ACL1Slot,
		baseband.ACLHighRate, baseband.ACLMediumRate,
		baseband.NewTypeSet(baseband.TypeDH5, baseband.TypeHV3),
	}
	policies := []segmentation.Policy{nil, segmentation.BestFit{}, segmentation.GreedyLargest{}}
	cfgs := []Config{{}, {DirectionAware: true}}
	memo := make(segMemo)
	checked := 0
	for _, minSize := range []int{1, 17, 27, 28, 121, 144, 183, 184, 339, 340} {
		for _, span := range []int{0, 1, 32, 200, 700} {
			for _, allowed := range sets {
				for _, policy := range policies {
					for _, scale := range []float64{1, 1.37, 4} {
						for _, dir := range []piconet.Direction{piconet.Up, piconet.Down} {
							spec := tspec.CBR(20*time.Millisecond, minSize, minSize+span)
							req := Request{ID: 1, Slave: 1, Dir: dir, Spec: spec,
								Rate: spec.TokenRate * scale, Allowed: allowed, Policy: policy}
							for _, cfg := range cfgs {
								want, err := DeriveParams(req, cfg)
								if err != nil {
									t.Fatalf("DeriveParams(%+v): %v", req, err)
								}
								for pass := 0; pass < 2; pass++ {
									got, err := deriveParams(req, cfg, memo)
									if err != nil || got != want {
										t.Fatalf("memoised pass %d for %+v under %+v = %+v, %v; want %+v",
											pass, req, cfg, got, err, want)
									}
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	// nil and BestFit{} share entries; GreedyLargest has its own.
	if want := 10 * 5 * len(sets) * 2; len(memo) != want {
		t.Fatalf("memo holds %d entries after %d checks, want %d", len(memo), checked, want)
	}
}

// slicePolicy is a custom policy whose value is not comparable, so it
// cannot be part of a map key.
type slicePolicy struct{ tags []string }

func (slicePolicy) Name() string { return "slice" }

func (slicePolicy) Segment(size int, allowed baseband.TypeSet) (segmentation.Plan, error) {
	return segmentation.BestFit{}.Segment(size, allowed)
}

// TestCustomPolicyBypassesMemo: a non-comparable custom policy admits,
// plans and negotiates without panicking, derives the same parameters as
// the BestFit it delegates to, and leaves the memo empty.
func TestCustomPolicyBypassesMemo(t *testing.T) {
	custom := func(id piconet.FlowID, slave piconet.SlaveID, dir piconet.Direction) Request {
		r := paperRequest(id, slave, dir, 0)
		r.Policy = slicePolicy{tags: []string{"custom"}}
		return r
	}
	c := NewController(Config{})
	req := custom(1, 1, piconet.Up)
	req.Rate = 12800
	pf, err := c.Admit(req)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	want, err := DeriveParams(paperRequest(1, 1, piconet.Up, 12800), Config{})
	if err != nil {
		t.Fatalf("DeriveParams: %v", err)
	}
	if pf.Params != want {
		t.Fatalf("custom policy params %+v, want BestFit's %+v", pf.Params, want)
	}
	if _, err := c.AdmitForDelay(DelayRequest{Request: custom(2, 2, piconet.Down), Target: 40 * time.Millisecond}); err != nil {
		t.Fatalf("AdmitForDelay: %v", err)
	}
	if len(c.memo) != 0 {
		t.Fatalf("memo holds %d entries for custom-policy flows, want 0", len(c.memo))
	}
	plan, err := PlanForDelayBestEffort([]DelayRequest{
		{Request: custom(1, 1, piconet.Up), Target: 40 * time.Millisecond},
		{Request: custom(2, 2, piconet.Down), Target: 40 * time.Millisecond},
	}, Config{})
	if err != nil {
		t.Fatalf("PlanForDelayBestEffort: %v", err)
	}
	if got := len(plan.Flows()); got != 2 {
		t.Fatalf("planned %d flows, want 2", got)
	}
}

// TestCloneTrialLeavesOriginal: admissions and removals on a clone share
// the memo but do not touch the original's flows.
func TestCloneTrialLeavesOriginal(t *testing.T) {
	c := NewController(Config{})
	for _, r := range []Request{
		paperRequest(1, 1, piconet.Up, 12800),
		paperRequest(2, 2, piconet.Down, 12800),
	} {
		if _, err := c.Admit(r); err != nil {
			t.Fatalf("Admit %d: %v", r.ID, err)
		}
	}
	snapshot := func(c *Controller) []PlannedFlow {
		var out []PlannedFlow
		for _, f := range c.Flows() {
			out = append(out, *f)
		}
		return out
	}
	before := snapshot(c)

	trial := c.clone()
	if _, err := trial.Admit(paperRequest(3, 2, piconet.Up, 14000)); err != nil {
		t.Fatalf("trial Admit: %v", err)
	}
	if err := trial.Remove(1); err != nil {
		t.Fatalf("trial Remove: %v", err)
	}
	if _, err := trial.Admit(paperRequest(4, 3, piconet.Up, 12800)); err != nil {
		t.Fatalf("trial Admit: %v", err)
	}
	if got := snapshot(c); !reflect.DeepEqual(got, before) {
		t.Fatalf("original changed by trial:\n got %+v\nwant %+v", got, before)
	}
	if got := len(trial.Flows()); got != 3 {
		t.Fatalf("trial holds %d flows, want 3", got)
	}
	// Every flow here uses one size range and type set.
	if len(c.memo) != 1 || len(trial.memo) != 1 {
		t.Fatalf("memo sizes %d (original) and %d (trial), want one shared entry",
			len(c.memo), len(trial.memo))
	}
}
