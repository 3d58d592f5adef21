package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/tables"
)

// servedKey is one parsed query of a serving workload's population.
type servedKey struct {
	raw string
	q   serve.Query
}

// population is a serving workload's key space: n keys, key i's query
// string built on demand, so a wide population costs the benchmark one
// 32-bit body hash per key (served.refs) and nothing more.
type population struct {
	n   int
	raw func(i int) string
}

func listPopulation(raws []string) population {
	return population{n: len(raws), raw: func(i int) string { return raws[i] }}
}

// sample parses at most n keys of p, evenly spaced over it.
func (p population) sample(n int) ([]servedKey, error) {
	raws := make([]string, min(n, p.n))
	for i := range raws {
		raws[i] = p.raw(i * p.n / len(raws))
	}
	return parseKeys(raws)
}

func parseKeys(raws []string) ([]servedKey, error) {
	keys := make([]servedKey, len(raws))
	for i, raw := range raws {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", raw, err)
		}
		q, err := serve.ParseQuery(v)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", raw, err)
		}
		keys[i] = servedKey{raw: raw, q: q}
	}
	return keys, nil
}

// Guard settings of every served node: kcserved run with -deadline
// and -max-inflight set (both are off by default), so the guard's
// deadline, admission and stale-ladder code sits on every request's
// path. The generator keeps at most nproc requests in flight and fills
// go unguarded, so no node ever holds more than nproc guarded requests:
// the in-flight bound is never reached, overload waits in the
// generator's backlog, and guard.shed and guard.deadline_exceeded read
// 0 by construction. They stay in the ledger so that a change which
// makes the guard shed or time out on this load shows.
const (
	nodeDeadline    = 2 * time.Second
	nodeMaxInflight = 8
	nodeStaleCap    = 64
)

// node is one in-process kcserved: a server over its own view of the
// shared cache directory, listening on a loopback port.
type node struct {
	cache  *plan.Cache
	srv    *serve.Server
	cl     *cluster.Cluster
	hs     *http.Server
	served chan struct{}
	addr   string
}

func (n *node) base() string { return "http://" + n.addr }

// close stops the listener and waits for the serve loop to return.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.served
}

// nodeOpts configures a set of nodes.
type nodeOpts struct {
	count   int
	measure bool
	lattice []predict.Query
	spans   *spanLog
}

// Benchmark-side trace headers: the request ID and the span that sent
// the request, so a server-side handler span joins the request's tree.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

type spanCtxKey struct{}

// tracedHandler wraps a node's handler in a "serve.handler" span whose
// parent is the sending span named in the request headers. The span is
// placed in the request context so peer fills sent on the request's
// behalf join the same tree.
// A request without the headers (an untraced pass) records nothing.
func tracedHandler(log *spanLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sp := log.start("serve.handler", parent, req)
		r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, sp))
		h.ServeHTTP(w, r)
		sp.finish()
	})
}

// tracedTransport records each peer fill as a "cluster.fill" span under
// the handler span that issued it; a fill issued outside a traced
// request is sent as is.
type tracedTransport struct {
	log  *spanLog
	base http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanCtxKey{}).(openSpan)
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := t.log.start("cluster.fill", parent.id, parent.req)
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatInt(sp.id, 10))
	req.Header.Set(hdrReq, strconv.FormatInt(parent.req, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.finish()
		return resp, err
	}
	// The fill is complete once its body is read; time it to then.
	resp.Body = &finishOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type finishOnClose struct {
	io.ReadCloser
	sp   openSpan
	once sync.Once
}

func (f *finishOnClose) Close() error {
	err := f.ReadCloser.Close()
	f.once.Do(func() { f.sp.finish() })
	return err
}

// startNodes opens o.count loopback listeners and starts one node on
// each over the cache directory dir. With more than one node they form
// a peer-filling cluster.
func startNodes(dir string, o nodeOpts) ([]*node, error) {
	lns := make([]net.Listener, o.count)
	peers := make([]string, o.count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	nodes := make([]*node, 0, o.count)
	fail := func(err error) ([]*node, error) {
		for _, n := range nodes {
			n.close()
		}
		for _, l := range lns[len(nodes):] {
			l.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		reg := obs.NewRegistry()
		cache, err := plan.NewDirCache(dir)
		if err != nil {
			return fail(err)
		}
		var cl *cluster.Cluster
		if o.count > 1 {
			var tr http.RoundTripper
			if o.spans != nil {
				tr = tracedTransport{log: o.spans, base: http.DefaultTransport}
			}
			cl, err = cluster.New(cluster.Config{Self: peers[i], Peers: peers, Seed: 1, Metrics: reg, Transport: tr})
			if err != nil {
				return fail(err)
			}
		}
		srv, err := serve.New(serve.Config{
			Cache:   cache,
			Metrics: reg,
			Measure: o.measure,
			Tracer:  obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(0, 0)}),
			Guard: guard.New(guard.Config{
				Deadline:    nodeDeadline,
				MaxInflight: nodeMaxInflight,
				StaleCap:    nodeStaleCap,
				Seed:        1,
				Metrics:     reg,
			}),
			Lattice: o.lattice,
			Cluster: cl,
		})
		if err != nil {
			return fail(err)
		}
		var h http.Handler = srv.Handler()
		if o.spans != nil {
			h = tracedHandler(o.spans, h)
		}
		n := &node{cache: cache, srv: srv, cl: cl, served: make(chan struct{}), addr: peers[i],
			hs: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
		go func() {
			defer close(n.served)
			n.hs.Serve(ln)
		}()
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// warmCache measures each query into the cache directory, the way a
// couple campaign warms a cache for kcserved.
func warmCache(dir string, qs []predict.Query) error {
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		return err
	}
	study := tables.BackendConfig{Cache: cache}.StudyRunner()
	for _, q := range qs {
		if _, err := study(context.Background(), q); err != nil {
			return fmt.Errorf("warming %s: %w", q.Key(), err)
		}
	}
	return nil
}

// client is the benchmark's HTTP client: keep-alive connections, at
// most conns per node.
type client struct {
	hc   *http.Client
	pool sync.Pool
}

func newClient(conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				IdleConnTimeout:     time.Minute,
				DisableCompression:  true,
			},
		},
		pool: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches url and hands the status and body to check. The body
// buffer is reused, so check must not retain it.
func (c *client) get(url string, req, parent int64, check func(status int, body []byte) error) error {
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if req != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := c.pool.Get().(*bytes.Buffer)
	defer c.pool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return check(resp.StatusCode, buf.Bytes())
}

// counters scrapes a node's /metrics and returns its counters by name.
func (c *client) counters(n *node) (map[string]int64, error) {
	var snap obs.Snapshot
	err := c.get(n.base()+"/metrics", 0, 0, func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("GET /metrics on %s = %d", n.addr, status)
		}
		return json.Unmarshal(body, &snap)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(snap.Counters))
	for _, cs := range snap.Counters {
		out[cs.Name] = cs.Value
	}
	return out, nil
}

// fleetCounters sums each counter over every node's /metrics.
func (r *run) fleetCounters(c *client, nodes []*node) map[string]int64 {
	sum := map[string]int64{}
	for _, n := range nodes {
		cs, err := c.counters(n)
		r.tally.op(err)
		for k, v := range cs {
			sum[k] += v
		}
	}
	return sum
}

// served is a running serving workload: its nodes, population, a hash
// of the first body recorded for each key, the client that drives it,
// and how many checked answers were for a key answered before.
type served struct {
	r       *run
	nodes   []*node
	pop     population
	seed    maphash.Seed
	refs    []atomic.Uint32
	client  *client
	answers atomic.Int64
	repeats atomic.Int64
}

// repeatFrac is the share of checked answers whose key had been
// answered before in the run: the reuse an answer memo could exploit.
func (s *served) repeatFrac() float64 {
	if n := s.answers.Load(); n > 0 {
		return float64(s.repeats.Load()) / float64(n)
	}
	return 0
}

func (s *served) close() {
	s.client.close()
	closeNodes(s.nodes)
}

var errBodyDiffers = errors.New("body differs from the first body recorded for its key")

// check accepts an answer for key k: status 200, and a body identical to
// the first body recorded for k on any node. The first answer for a key
// records it. Bodies are compared by a 32-bit hash, so the benchmark's
// own memory stays constant however wide the population.
func (s *served) check(k int, where string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("GET %s/predict?%s = %d: %s", where, s.pop.raw(k), status, bytes.TrimSpace(body))
	}
	h := uint32(maphash.Bytes(s.seed, body)) | 1 // never 0, the unrecorded mark
	s.answers.Add(1)
	if s.refs[k].CompareAndSwap(0, h) {
		return nil
	}
	s.repeats.Add(1)
	if s.refs[k].Load() == h {
		return nil
	}
	return fmt.Errorf("%w: %s on %s", errBodyDiffers, s.pop.raw(k), where)
}

// predict sends key k to node i and checks the answer.
func (s *served) predict(k, i int, req, parent int64) error {
	n := s.nodes[i]
	return s.client.get(n.base()+"/predict?"+s.pop.raw(k), req, parent, func(status int, body []byte) error {
		return s.check(k, n.addr, status, body)
	})
}

// setUpServed warms a fresh cache directory with the measured queries,
// starts the nodes over it, and sends each of the first `touch` keys
// once (key k to node k mod count) so disk reads and lazy set-up finish
// before timing.
func (r *run) setUpServed(measured []predict.Query, pop population, touch int, o nodeOpts) (*served, error) {
	dir, err := r.scratchDir("cache")
	if err != nil {
		return nil, err
	}
	if err := warmCache(dir, measured); err != nil {
		return nil, err
	}
	nodes, err := startNodes(dir, o)
	if err != nil {
		return nil, err
	}
	s := &served{r: r, nodes: nodes, pop: pop, seed: maphash.MakeSeed(), refs: make([]atomic.Uint32, pop.n), client: newClient(r.conns)}
	for k := 0; k < touch; k++ {
		err := s.predict(k, k%len(nodes), 0, 0)
		r.tally.op(err)
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// setUpRepeated runs set-up `repeats` times, keeping the last instance
// and reporting the median set-up time; each set-up warms its own fresh
// directory, so every repeat pays the full cost. Each starts from a
// collected heap, so no repeat pays for the garbage of the one before.
func (r *run) setUpRepeated(repeats int, setup func() (*served, error)) (*served, float64, error) {
	var s *served
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0))
	}
	r.logf("setup: %d repeats, median %.3fs (%v)", repeats, medianDur(times), times)
	return s, medianDur(times), nil
}

// loadSpec fixes one serving workload's generated traffic.
type loadSpec struct {
	// rate is the fixed nominal rate the latency metrics are taken at.
	rate float64
	// satRate is what a goodput step offers: far above capacity, so the
	// generator always has a request due.
	satRate float64
	// pick draws a key index of the population.
	pick func(*rand.Rand) int
}

// Root span names of a traced request: the fixed-rate load (warm-up
// and latency windows), whose requests the per-request layer figures
// describe, and the goodput steps.
const (
	spanRequest = "http.request"
	spanGoodput = "http.goodput"
)

// traffic sends one open-loop schedule at rate for d, checking every
// answer, and returns the phase. With a span log, every request gets a
// request ID and a root span of the given name.
func (s *served) traffic(rng *rand.Rand, rate float64, d time.Duration, spec loadSpec, log *spanLog, name string, stopAfter time.Duration) *phase {
	arr := poissonSchedule(rng, rate, d, len(s.nodes), spec.pick)
	return runOpenLoop(arr, s.r.conns, stopAfter, func(a arrival) error {
		req := log.newReq()
		sp := log.start(name, 0, req)
		err := s.predict(a.query, a.node, req, sp.id)
		sp.finish()
		s.r.tally.op(err)
		return err
	})
}

// warmUp sends the fixed-rate load, untimed, for the warm-up share of
// the run. Its answers are checked and counted like any others.
func (s *served) warmUp(rng *rand.Rand, spec loadSpec, log *spanLog) {
	d := time.Duration(float64(s.r.seconds) * warmupShare)
	p := s.traffic(rng, spec.rate, d, spec, log, spanRequest, 0)
	s.r.logf("warm-up: rate %.0f/s for %v: sent %d failed %d", spec.rate, d, p.sent, p.failed)
}

// fixedWindows is how many windows the fixed-rate phase is cut into;
// its metrics are taken over them (see windowed).
const fixedWindows = 12

// fixedPhase is the fixed-rate latency measurement, sent as separate
// slices (windows) that can be spread over the run between other
// phases: a slow spell of the host then covers some windows, not the
// whole measurement.
type fixedPhase struct {
	s        *served
	rng      *rand.Rand
	spec     loadSpec
	slice    time.Duration
	log      *spanLog
	latency  [][]time.Duration
	lateness [][]time.Duration
	sent     int
	failed   int
}

func (s *served) fixedPhase(rng *rand.Rand, spec loadSpec, d time.Duration, log *spanLog) *fixedPhase {
	return &fixedPhase{s: s, rng: rng, spec: spec, slice: d / fixedWindows, log: log}
}

// run sends up to n more slices, never more than fixedWindows in all.
func (f *fixedPhase) run(n int) {
	for ; n > 0 && len(f.latency) < fixedWindows; n-- {
		p := f.s.traffic(f.rng, f.spec.rate, f.slice, f.spec, f.log, spanRequest, 0)
		f.latency = append(f.latency, p.latency)
		f.lateness = append(f.lateness, p.lateness)
		f.sent += p.sent
		f.failed += p.failed
	}
}

// report sends any slices still due and reports the windowed median and
// tail with their sample counts, and the generator's lateness.
func (f *fixedPhase) report(label string) (lat, late summary) {
	f.run(fixedWindows)
	lat, late = windowed(f.latency, metricWindowQ), windowed(f.lateness, metricWindowQ)
	var perWindow strings.Builder
	for _, w := range f.latency {
		sw := sortedCopy(w)
		fmt.Fprintf(&perWindow, " %v/%v", quantile(sw, 0.5).Round(time.Microsecond), quantile(sw, lat.tailQ).Round(time.Microsecond))
	}
	f.s.r.logf("%s: rate %.0f/s, %d windows of %v: sent %d ok %d failed %d; latency p50 %v p%g %v (n=%d); lateness p50 %v p%g %v",
		label, f.spec.rate, fixedWindows, f.slice, f.sent, f.sent-f.failed, f.failed, lat.p50, lat.tailQ*100, lat.tail, lat.n,
		late.p50, late.tailQ*100, late.tail)
	f.s.r.logf("%s windows p50/p%g:%s", label, lat.tailQ*100, perWindow.String())
	return lat, late
}

// goodputSteps is how many saturation steps goodput takes its median
// over. With fixedWindows/3 fixed-rate windows sent before the first
// step and one before each step, they use up every window but the last.
const goodputSteps = fixedWindows - fixedWindows/3 - 1

// goodput is the rate of good answers with every connection always
// busy: the system's capacity at the generator's concurrency. A good
// answer passed every check; a shed (503) or timed-out (504) answer is a
// failure, so the guard's deadline is the latency limit. Each step
// offers satRate for step and counts what completes, the requests still
// in flight at the cut included; goodput is the median over the steps.
// Spread over the run between fixed-rate windows, a spell of host
// interference covers some steps, not the measurement, and a median of
// throughputs has no pass/fail threshold for noise to tip. between,
// when non-nil, runs before each step. It also returns the guard
// counters' growth over the goodput phase. A step that completes nearly
// what it offers has not saturated the system, and the error says so.
func (s *served) goodput(rng *rand.Rand, spec loadSpec, step time.Duration, log *spanLog, between func()) (float64, int64, int64, error) {
	before := s.r.fleetCounters(s.client, s.nodes)
	rates := make([]float64, goodputSteps)
	for i := range rates {
		if between != nil {
			between()
		}
		p := s.traffic(rng, spec.satRate, step, spec, log, spanGoodput, step)
		rates[i] = float64(p.sent-p.failed) / p.elapsed.Seconds()
	}
	after := s.r.fleetCounters(s.client, s.nodes)
	shed := after["serve.shed"] - before["serve.shed"]
	deadline := after["serve.deadline_exceeded"] - before["serve.deadline_exceeded"]
	s.r.logf("  goodput steps of %v offering %.0f/s: %.0f good answers/s", step, spec.satRate, rates)
	sort.Float64s(rates)
	if top := rates[len(rates)-1]; top >= 0.9*spec.satRate {
		return top, shed, deadline, fmt.Errorf("goodput step completed %.0f/s of the %.0f/s it offered: the system was not saturated", top, spec.satRate)
	}
	return rates[rank(0.5, len(rates))-1], shed, deadline, nil
}
