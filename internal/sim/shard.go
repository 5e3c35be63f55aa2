package sim

// ShardSet drives a fixed set of independent Simulators ("shards") to a
// common horizon in lockstep epochs: every shard runs its own event
// kernel up to the epoch boundary, then all shards meet at a barrier
// where cross-shard mailboxes drain and the caller's exchange hook runs.
// This is the conservative parallel-discrete-event-simulation shape:
// shards may interact only through state swapped at barriers, so the
// epoch length is the lookahead the coupling model must tolerate.
//
// Shards step sequentially on the calling goroutine, in index order.
// Multiplexing them onto worker goroutines never beat one worker on any
// measured piconet count (4 to 128 piconets), and a sweep already runs
// one simulation per CPU, so per-shard threads would only oversubscribe
// the machine. Determinism is the design constraint, exactly as for a
// single Simulator: each kernel, its RNG and its seq counter are
// private, mailbox posts drain at the barrier in (source shard, post
// order), and the exchange hook runs with every shard clock parked at
// the boundary.
type ShardSet struct {
	shards []*Simulator
	// mail[src] buffers the posts shard src made during the current
	// epoch; the barrier drains all buffers.
	mail [][]mailPost
}

// mailPost is one cross-shard event in flight: scheduled into the
// destination kernel at the next barrier.
type mailPost struct {
	dst int
	at  Time
	fn  Handler
}

// NewShardSet groups the given simulators into a shard set. The slice
// order fixes shard indices for Post and for barrier drain order.
func NewShardSet(shards ...*Simulator) *ShardSet {
	return &ShardSet{shards: shards, mail: make([][]mailPost, len(shards))}
}

// Len returns the number of shards.
func (ss *ShardSet) Len() int { return len(ss.shards) }

// Shard returns the i-th shard's simulator.
func (ss *ShardSet) Shard(i int) *Simulator { return ss.shards[i] }

// Post enqueues fn for delivery into shard dst's kernel at the next
// epoch barrier, stamped with the sending epoch: the event is scheduled
// at max(at, barrier time), so a post can never land in a destination
// shard's past even when the sender ran ahead of it inside the epoch.
// Post may be called from shard src's handlers while an epoch runs and
// from the exchange hook.
func (ss *ShardSet) Post(src, dst int, at Time, fn Handler) {
	ss.mail[src] = append(ss.mail[src], mailPost{dst: dst, at: at, fn: fn})
}

// drainMail schedules every buffered post into its destination kernel.
// Runs at a barrier with all shard clocks at end; source order then
// post order keeps destination seq assignment a pure function of the
// shards' deterministic execution.
func (ss *ShardSet) drainMail(end Time) {
	for src := range ss.mail {
		for _, p := range ss.mail[src] {
			at := p.at
			if at < end {
				at = end
			}
			ss.shards[p.dst].Schedule(at, p.fn)
		}
		ss.mail[src] = ss.mail[src][:0]
	}
}

// RunEpochs drives every shard to horizon in lockstep epochs of the
// given length (epoch <= 0 means a single epoch spanning the whole
// horizon). After every epoch — including the final one — the barrier
// drains cross-shard mailboxes and then calls exchange (when non-nil)
// with every shard clock at the boundary.
//
// The returned slice holds one error per shard: ErrStopped for shards
// that called Stop. The first epoch in which any shard fails is the last
// epoch run; the surviving shards still complete it, so the barrier is
// the abort point. A handler panic propagates to the caller unchanged,
// as it would from Simulator.Run.
func (ss *ShardSet) RunEpochs(horizon, epoch Time, exchange func(end Time)) []error {
	errs := make([]error, len(ss.shards))
	if len(ss.shards) == 0 {
		return errs
	}
	if epoch <= 0 {
		epoch = horizon
	}
	for start := Time(0); start < horizon || start == 0; start += epoch {
		end := start + epoch
		if end > horizon {
			end = horizon
		}
		for i, s := range ss.shards {
			if errs[i] == nil {
				errs[i] = s.Run(end)
			}
		}
		ss.drainMail(end)
		if exchange != nil {
			exchange(end)
		}
		for _, err := range errs {
			if err != nil {
				return errs
			}
		}
		if end >= horizon {
			break
		}
	}
	return errs
}
