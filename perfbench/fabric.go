package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bluegs/internal/fabric"
	"bluegs/internal/harness"
)

// workerPoll is the fabric workers' idle re-poll interval: the value the
// in-process fabric example uses, so a pass does not start up to the
// 300 ms default late.
const workerPoll = 20 * time.Millisecond

// fabricStats is what the loopback proxy saw during one or more passes.
type fabricStats struct {
	leaseRTTMs, completeRTTMs []float64
	leaseRequests, leaseEmpty int
	leases, runsLeased        int
	bytes                     int64
	leaseBusy                 time.Duration // summed lease turnaround
	journalBytes              int64
	runs                      int
}

func (s *fabricStats) add(o fabricStats) {
	s.leaseRTTMs = append(s.leaseRTTMs, o.leaseRTTMs...)
	s.completeRTTMs = append(s.completeRTTMs, o.completeRTTMs...)
	s.leaseRequests += o.leaseRequests
	s.leaseEmpty += o.leaseEmpty
	s.leases += o.leases
	s.runsLeased += o.runsLeased
	s.bytes += o.bytes
	s.leaseBusy += o.leaseBusy
	s.journalBytes += o.journalBytes
	s.runs += o.runs
}

// proxyPass is the proxy's book-keeping for one pass.
type proxyPass struct {
	stats    fabricStats
	turnMs   []float64 // per-run lease turnaround
	leasedAt map[string]time.Time
	passID   int64
	pass     int
	complete map[int]int64 // run index → span of the /complete that returned it
	// allIn closes once want runs have been returned: the coordinator
	// finishes a pass before the proxy has seen the last reply.
	want  int
	allIn chan struct{}
	// closed is set when the pass ended; later traffic is not booked, so
	// the record can be read without the proxy's lock.
	closed bool
}

// proxy is a loopback reverse proxy between the fabric workers and the
// coordinator. It times every request and reads the lease and complete
// bodies to see which runs each carried. The upstream can be switched
// between passes without the workers noticing.
type proxy struct {
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	upstream string
	// client is per upstream, so a retired coordinator's connections
	// can be closed without touching the next one's.
	client   *http.Client
	tr       *tracer
	cur      *proxyPass
	joined   map[string]bool
	joinedCh chan struct{}
	want     int
}

func newProxy(want int) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	p := &proxy{
		ln:       ln,
		client:   &http.Client{},
		joined:   make(map[string]bool),
		joinedCh: make(chan struct{}),
		want:     want,
		cur:      newProxyPass(0, 0, 0),
	}
	p.srv = &http.Server{Handler: p}
	go p.srv.Serve(ln)
	return p, nil
}

func newProxyPass(passID int64, k, want int) *proxyPass {
	return &proxyPass{leasedAt: make(map[string]time.Time), complete: make(map[int]int64),
		passID: passID, pass: k, want: want, allIn: make(chan struct{})}
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

// switchTo points the proxy at a coordinator, booking its traffic in
// st, and returns the client of the previous upstream.
func (p *proxy) switchTo(upstream string, st *proxyPass, tr *tracer) *http.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.client
	p.upstream, p.client, p.cur, p.tr = upstream, &http.Client{Transport: &http.Transport{}}, st, tr
	return prev
}

// endPass closes the current pass record; traffic until the next switch
// is not booked.
func (p *proxy) endPass() {
	p.mu.Lock()
	p.cur.closed = true
	p.mu.Unlock()
}

// close stops the proxy at once; it is called after the workers exited.
func (p *proxy) close() {
	p.srv.Close()
	p.mu.Lock()
	p.client.CloseIdleConnections()
	p.mu.Unlock()
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	recv := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	upstream, client, st, tr := p.upstream, p.client, p.cur, p.tr
	p.mu.Unlock()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+upstream+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	got := time.Now()
	// A lease is booked before the worker sees it, so its /complete can
	// never arrive first; everything else is parsed after the reply is
	// sent, so the proxy does not delay the worker.
	lease := r.URL.Path == "/lease"
	if lease {
		p.observe(st, tr, r.URL.Path, body, rbody, recv, got)
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(rbody)
	if !lease {
		p.observe(st, tr, r.URL.Path, body, rbody, recv, got)
	}
}

// observe books one proxied request.
func (p *proxy) observe(st *proxyPass, tr *tracer, path string, body, rbody []byte, recv, got time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st.closed {
		return
	}
	st.stats.bytes += int64(len(body) + len(rbody))
	spanID := tr.record(0, st.passID, "http"+path, "", recv, got)
	switch path {
	case "/lease":
		var req fabric.LeaseRequest
		var resp struct {
			Status string
			Lease  *struct {
				ID   string
				Runs []json.RawMessage
			}
		}
		if json.Unmarshal(body, &req) != nil || json.Unmarshal(rbody, &resp) != nil {
			return
		}
		if !p.joined[req.Worker] {
			p.joined[req.Worker] = true
			if len(p.joined) == p.want {
				close(p.joinedCh)
			}
		}
		st.stats.leaseRequests++
		st.stats.leaseRTTMs = append(st.stats.leaseRTTMs, ms(got.Sub(recv)))
		if resp.Status != fabric.StatusLease || resp.Lease == nil {
			st.stats.leaseEmpty++
			return
		}
		st.stats.leases++
		st.stats.runsLeased += len(resp.Lease.Runs)
		st.leasedAt[resp.Lease.ID] = got
	case "/complete":
		var req struct {
			Lease string
			Runs  []struct{ Index int }
		}
		if json.Unmarshal(body, &req) != nil {
			return
		}
		st.stats.completeRTTMs = append(st.stats.completeRTTMs, ms(got.Sub(recv)))
		leased, ok := st.leasedAt[req.Lease]
		if !ok {
			return
		}
		st.stats.leaseBusy += recv.Sub(leased)
		for _, r := range req.Runs {
			st.turnMs = append(st.turnMs, ms(recv.Sub(leased)))
			tr.record(0, st.passID, "run", runID(st.pass, r.Index), leased, recv)
			st.complete[r.Index] = spanID
			if len(st.turnMs) == st.want {
				close(st.allIn)
			}
		}
	}
}

// fabricWL is fabric_cold: every pass starts a fresh coordinator with an
// empty disk cache and journal, points the proxy at it, and leases the
// grid to the loopback workers, so every run is executed by a worker and
// written through the cache and the journal.
type fabricWL struct {
	build   func() []harness.Run
	workers int
	workDir string
	meta    fabric.JournalMeta

	grid     []harness.Run
	keyIndex map[string]int
	px       *proxy
	coord    *fabric.Coordinator
	coordDir string
	stop     context.CancelFunc
	wg       sync.WaitGroup
	werrs    chan error
	seq      int
	lay      layerStats
}

func (w *fabricWL) runs() []harness.Run           { return w.grid }
func (w *fabricWL) setupDigests() []string        { return nil }
func (w *fabricWL) layer() *layerStats            { return &w.lay }
func (w *fabricWL) check(harness.RunResult) error { return nil }

// newCoordinator starts a coordinator on a fresh directory holding its
// disk cache and journal.
func (w *fabricWL) newCoordinator() (*fabric.Coordinator, *timedBackend, string, error) {
	w.seq++
	dir := filepath.Join(w.workDir, fmt.Sprintf("coord-%d", w.seq))
	cache, tb, err := newTimedDirCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, nil, "", err
	}
	c, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Grid:        w.meta.Grid,
		Cache:       cache,
		JournalPath: filepath.Join(dir, "journal"),
		Meta:        w.meta,
	})
	return c, tb, dir, err
}

func (w *fabricWL) setup() error {
	w.grid = w.build()
	c, _, dir, err := w.newCoordinator()
	if err != nil {
		return err
	}
	w.coord, w.coordDir = c, dir
	w.keyIndex = make(map[string]int, len(w.grid))
	for i, r := range w.grid {
		w.keyIndex[harness.CacheKey(c.Salt(), r.Spec)] = i
	}
	if w.px, err = newProxy(w.workers); err != nil {
		return err
	}
	w.px.switchTo(c.Addr(), newProxyPass(0, 0, 0), nil)
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	w.werrs = make(chan error, w.workers)
	for i := 0; i < w.workers; i++ {
		w.wg.Add(1)
		go func(i int) {
			defer w.wg.Done()
			_, err := fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: w.px.addr(),
				Name:        fmt.Sprintf("w%d", i),
				Workers:     1,
				Poll:        workerPoll,
			})
			if err != nil {
				w.werrs <- err
			}
		}(i)
	}
	select {
	case <-w.px.joinedCh:
		return nil
	case err := <-w.werrs:
		return fmt.Errorf("fabric worker: %w", err)
	case <-time.After(30 * time.Second):
		return errors.New("fabric workers did not join within 30s")
	}
}

// reset stops the workers, the proxy and the coordinator of a set-up.
func (w *fabricWL) reset() {
	if w.stop != nil {
		w.stop()
		w.wg.Wait()
		w.stop = nil
	}
	if w.px != nil {
		w.px.close()
		w.px = nil
	}
	w.closeCoordinator()
}

func (w *fabricWL) closeCoordinator() {
	if w.coord != nil {
		w.coord.Close()
		os.RemoveAll(w.coordDir)
		w.coord = nil
	}
}

func (w *fabricWL) close() { w.reset() }

func (w *fabricWL) pass(tr *tracer, root, passID int64, k int) (passOut, error) {
	start := time.Now()
	c, tb, dir, err := w.newCoordinator()
	if err != nil {
		return passOut{}, err
	}
	st := newProxyPass(passID, k, len(w.grid))
	prevClient := w.px.switchTo(c.Addr(), st, tr)
	results, _ := c.Execute(w.grid, harness.Options{})
	end := time.Now()
	select {
	case <-st.allIn:
	case <-time.After(5 * time.Second):
	}
	w.px.endPass()
	tr.record(passID, root, "Coordinator.Execute", "", start, end)

	// The previous coordinator has had no traffic since the switch.
	prevClient.CloseIdleConnections()
	w.closeCoordinator()
	w.coord, w.coordDir = c, dir
	if fi, err := os.Stat(filepath.Join(dir, "journal")); err == nil {
		st.stats.journalBytes = fi.Size()
	}
	st.stats.runs = len(results)
	w.lay.fabric.add(st.stats)

	ops := tb.drain()
	w.lay.addOps(ops)
	for _, op := range ops {
		if i, ok := w.keyIndex[op.key]; ok && op.put {
			tr.record(0, st.complete[i], "cache.put", runID(k, i), op.start, op.end)
		}
	}
	w.lay.lookups += len(results)
	if cs := c.Stats(); cs.FromWorkers != cs.Runs {
		return passOut{}, fmt.Errorf("fabric pass %d: %d of %d runs did not come from workers", k, cs.Runs-cs.FromWorkers, cs.Runs)
	}
	return passOut{wall: end.Sub(start), results: results, latencies: st.turnMs, busy: st.stats.leaseBusy}, nil
}
