package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bluegs/internal/scenario"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// fails when fewer than minBeyond samples lie beyond it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", p*100)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median is the 0.5 nearest-rank quantile without the tail rule, for
// small repeated measurements such as set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one run share RunID; Parent is the ID of the span
// that caused it (0 for the root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	RunID  string `json:"run,omitempty"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent that is
// recorded only once it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a span with a reserved ID (or a fresh one when id is 0)
// and returns the ID.
func (t *tracer) record(id, parent int64, name, runID string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RunID: runID,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ s, e time.Duration }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.s <= cur.e:
			cur.e = max(cur.e, v.e)
		default:
			covered += cur.e - cur.s
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.e - cur.s
	}
	return parent.End - parent.Start - covered
}

// selfShare sums the self time of every span named name and divides it by
// their summed duration.
func selfShare(spans []span, name string) float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var self, total time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		self += selfTime(s, children[s.ID])
		total += s.End - s.Start
	}
	return ratio(float64(self), float64(total))
}

// digest fingerprints a run's model output: every measured quantity of
// the result, rendered field by field, so two commits that simulate the
// same thing print the same digest. The spec and the delay histograms
// are left out (the spec is input; the histograms are summarised by the
// flow rows). The rendering treats nil and empty collections alike, so a
// result replayed from the run cache digests like the fresh one.
func digest(r *scenario.Result) string {
	h := sha256.New()
	writeResult(h, r)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeResult(w io.Writer, r *scenario.Result) {
	fmt.Fprintf(w, "elapsed=%d events=%d gs=%d be=%d skipped=%d slots=%+v\n",
		r.Elapsed, r.Events, r.GSPolls, r.BEPolls, r.Skipped, r.Slots)
	fmt.Fprintf(w, "slave=%v sco=%v\n", r.SlaveKbps, r.SCOKbps)
	for _, f := range r.Flows {
		f.Delay = nil
		fmt.Fprintf(w, "flow %+v\n", f)
	}
	for _, p := range r.Admitted {
		fmt.Fprintf(w, "admitted %+v\n", *p)
	}
	for _, a := range r.Admissions {
		fmt.Fprintf(w, "admission %+v\n", a)
	}
	for _, rt := range r.Routes {
		rt.Delay = nil
		fmt.Fprintf(w, "route %+v\n", rt)
	}
	for _, p := range r.Piconets {
		fmt.Fprintf(w, "piconet %s removed=%v crashed=%v util=%v slots=%+v gs=%d be=%d skipped=%d slave=%v sco=%v flows=%d admitted=%d admissions=%d\n",
			p.Name, p.Removed, p.Crashed, p.Utilization, p.Slots, p.GSPolls, p.BEPolls, p.Skipped,
			p.SlaveKbps, p.SCOKbps, len(p.Flows), len(p.Admitted), len(p.Admissions))
	}
}

// setDigest combines per-run digests, in run order, into one.
func setDigest(digests []string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(digests, "\n"))))[:16]
}
