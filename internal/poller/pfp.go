package poller

import (
	"math"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// PFP is the Predictive Fair Poller of Ait Yaiz & Heijenk (Wireless Personal
// Communications 23(1), 2002), the poller the paper's evaluation uses for
// best-effort traffic. For every slave it maintains two aspects:
//
//   - a prediction of whether the slave has data: the master knows its own
//     downlink queues and the slave's last more-data flag exactly, and
//     estimates the uplink arrival rate from poll outcomes, giving
//     P(data) = 1 - exp(-lambda * timeSinceQueueKnownEmpty);
//   - a fairness account: each slave has a fair share (weight) of the
//     polling resource, and the fraction of its fair share each slave has
//     received ranks the slaves.
//
// The decision rule polls the slave with the smallest received fair-share
// fraction among slaves predicted to have data; when no slave is predicted
// active, it refreshes its knowledge by probing the slave whose state is
// stalest. The exact internals of the published PFP live in a companion
// report; this realization keeps its two published aspects (prediction and
// fair-share fractions) and is validated against the properties the paper
// claims: full throughput for underloaded slaves and max-min fair division
// of leftover capacity. Create with NewPFP.
type PFP struct {
	weights map[piconet.SlaveID]float64
	state   map[piconet.SlaveID]*pfpSlave
	inited  bool
	pending piconet.SlaveID
	// servedSum and weightSum are the running totals over state of
	// servedSlots and of the slaves' weights, kept so FairShareFraction
	// needs no pass over the map. Slot counts are whole numbers, so
	// servedSum is exact in any order.
	servedSum, weightSum float64

	// activeThreshold is the prediction level above which a slave is
	// treated as having data.
	activeThreshold float64
	// tau is the time constant of the arrival-rate estimator.
	tau sim.Time
}

type pfpSlave struct {
	// lambda is the estimated uplink packet arrival rate (packets/s).
	lambda float64
	// lastPollEnd is when we last learned this slave's queue state.
	lastPollEnd sim.Time
	// everPolled reports whether lastPollEnd is meaningful.
	everPolled bool
	// moreData is the slave's last more-data flag.
	moreData bool
	// servedSlots accumulates the polling resource spent on the slave.
	servedSlots float64
}

var _ Poller = (*PFP)(nil)

// PFPOption configures a PFP poller.
type PFPOption func(*PFP)

// WithActiveThreshold sets the prediction level above which a slave is
// treated as having data (default 0.6). Higher values poll idle-looking
// slaves later: fewer wasted probe slots at the cost of slightly higher
// best-effort delay. Values outside (0, 1) are ignored.
func WithActiveThreshold(p float64) PFPOption {
	return func(pfp *PFP) {
		if p > 0 && p < 1 {
			pfp.activeThreshold = p
		}
	}
}

// NewPFP returns a Predictive Fair Poller. weights assigns each slave's
// fair share; nil or missing entries default to 1 (equal shares).
func NewPFP(weights map[piconet.SlaveID]float64, opts ...PFPOption) *PFP {
	w := make(map[piconet.SlaveID]float64, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	pfp := &PFP{
		weights:         w,
		state:           make(map[piconet.SlaveID]*pfpSlave),
		activeThreshold: 0.6,
		tau:             200 * time.Millisecond, // rate-estimator time constant
	}
	for _, opt := range opts {
		opt(pfp)
	}
	return pfp
}

// Name implements Poller.
func (*PFP) Name() string { return "pfp" }

func (p *PFP) weight(s piconet.SlaveID) float64 {
	if w, ok := p.weights[s]; ok {
		return w
	}
	return 1
}

func (p *PFP) slave(s piconet.SlaveID) *pfpSlave {
	st, ok := p.state[s]
	if !ok {
		st = &pfpSlave{lambda: 50} // optimistic prior: 50 packets/s
		p.state[s] = st
		p.weightSum += p.weight(s)
	}
	return st
}

// Predict returns the poller's current estimate of the probability that the
// slave has data to exchange at time now (exposed for tests and reports).
func (p *PFP) Predict(now sim.Time, v View, s piconet.SlaveID) float64 {
	if v.DownBacklog(s) > 0 {
		return 1
	}
	st := p.slave(s)
	if st.moreData {
		return 1
	}
	if !st.everPolled {
		return 1 // never sampled: assume active so it gets polled
	}
	dt := (now - st.lastPollEnd).Seconds()
	if dt <= 0 {
		return 0
	}
	return 1 - math.Exp(-st.lambda*dt)
}

// FairShareFraction returns served/(weight-normalised total): below 1 means
// the slave has received less than its fair share (exposed for tests).
func (p *PFP) FairShareFraction(s piconet.SlaveID) float64 {
	if p.servedSum == 0 || p.weightSum == 0 {
		return 0
	}
	fairShare := p.servedSum * p.weight(s) / p.weightSum
	if fairShare == 0 {
		return math.Inf(1)
	}
	return p.slave(s).servedSlots / fairShare
}

// Next implements Poller.
func (p *PFP) Next(now sim.Time, v View) (piconet.SlaveID, bool) {
	slaves := v.Slaves()
	if len(slaves) == 0 {
		return 0, false
	}
	if !p.inited {
		for _, s := range slaves {
			p.slave(s)
		}
		p.inited = true
	}
	// Fairness-first among predicted-active slaves.
	var best piconet.SlaveID
	bestFrac := math.Inf(1)
	for _, s := range slaves {
		if p.Predict(now, v, s) < p.activeThreshold {
			continue
		}
		frac := p.FairShareFraction(s)
		if frac < bestFrac {
			best, bestFrac = s, frac
		}
	}
	if best != 0 {
		p.pending = best
		return best, true
	}
	// Nobody predicted active: refresh the stalest knowledge.
	best = slaves[0]
	for _, s := range slaves[1:] {
		if p.slave(s).lastPollEnd < p.slave(best).lastPollEnd {
			best = s
		}
	}
	p.pending = best
	return best, true
}

// Observe implements Poller.
func (p *PFP) Observe(o Outcome) {
	st := p.slave(o.Slave)
	carried := 0.0
	if o.UpBytes > 0 {
		carried = 1
	}
	if st.everPolled {
		dt := (o.End - st.lastPollEnd).Seconds()
		if dt > 0 {
			// Time-constant EWMA handles irregular sampling gaps.
			w := 1 - math.Exp(-dt/p.tau.Seconds())
			obs := carried / dt
			st.lambda = (1-w)*st.lambda + w*obs
			if st.lambda < 0.1 {
				st.lambda = 0.1 // keep probes alive for idle slaves
			}
		}
	}
	st.everPolled = true
	st.lastPollEnd = o.End
	st.moreData = o.UpMoreData
	st.servedSlots += float64(o.Slots)
	p.servedSum += float64(o.Slots)
}
