// Command kcload is the repo's HTTP client for kcserved: the cluster's
// load generator and the serving gates' integration drills in one
// binary. -scenario picks what it drives:
//
//   - fleet (default) sends a deterministic mixed query stream to one or
//     more nodes. A seeded zipf popularity distribution over -keys query
//     variants models the real shape of prediction traffic (a hot head
//     the replica tier should absorb, a long tail the ring spreads). An
//     initial deterministic sweep issues every variant exactly once, so
//     the fleet's cold-key cost is countable: with on-demand
//     measurement, fleet-wide measure executions must equal the number
//     of distinct variants — the cluster's exactly-once promise. -burst
//     fires synchronized request volleys at the hottest key, and -kill
//     sends SIGTERM to a fleet process after a chosen number of
//     completed requests, exercising rehash-to-survivors mid-run.
//   - selfcheck checks one warm node's serving contract (drills.go).
//   - chaos drives one hardened, fault-injected node through the whole
//     failure ladder (drills.go).
//
// Every scenario shares one client. A request whose target fails at
// the transport retries against the next target, so a killed node costs
// latency, never a lost request; a request lost on every target counts
// as failed, like a 5xx. Every 200 /predict answer for a query after
// the cold sweep must equal the first one byte for byte and carry no
// X-Degraded tag.
//
// The run summary (JSON on stdout) carries request/status counts and
// p50/p99/p999; -bench-out merges the quantiles into a BENCH_<date>.json
// snapshot under custom metric keys ("p50-ns", ...) that the benchdiff
// regression gate ignores by design — chaos noise is archived, never
// gating.
//
// Examples — a 3-node fleet with a mid-run kill, then the two drills:
//
//	kcload -targets 127.0.0.1:8641,127.0.0.1:8642,127.0.0.1:8643 \
//	  -n 300 -keys 6 -kill $PID2@100 -max-5xx 0
//	kcload -scenario selfcheck -targets 127.0.0.1:8640 \
//	  -base-query 'bench=BT&chains=2' -n 16 -concurrency 16
//	kcload -scenario chaos -targets 127.0.0.1:8640 \
//	  -base-query 'bench=BT&chains=2' -n 16 -concurrency 16
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/benchdiff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "kcload: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, drives the chosen scenario and writes the summary to
// stdout; any failed check, flag error or excess of failed requests is
// the returned error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kcload", flag.ContinueOnError)
	var (
		scenario    = fs.String("scenario", "fleet", "what to drive: fleet (zipf load over -keys variants), selfcheck (one warm node's serving contract) or chaos (one hardened, fault-injected node's failure ladder)")
		targets     = fs.String("targets", "", "comma-separated kcserved base addresses (required; selfcheck and chaos take exactly one)")
		n           = fs.Int("n", 200, "fleet: requests after the sweep; selfcheck: concurrent rounds; chaos: overload burst size (clamped to 8..16)")
		concurrency = fs.Int("concurrency", 8, "concurrent in-flight requests")
		keys        = fs.Int("keys", 8, "distinct query variants in the key population")
		zipfS       = fs.Float64("zipf-s", 1.2, "zipf skew (s > 1; larger = hotter head)")
		seed        = fs.Uint64("seed", 1, "seed for the popularity draw and target rotation")
		baseQuery   = fs.String("base-query", "bench=BT&class=S&procs=4&chains=2&trips=2&blocks=1&passes=1",
			"query template; fleet variant i sets grid=<grid0+i>, selfcheck and chaos use it verbatim as the warm query")
		grid0     = fs.Int("grid0", 4, "grid of variant 0 (variant i uses grid0+i)")
		burst     = fs.Int("burst", 0, "burst size: extra synchronized requests for the hottest key (0 disables)")
		burstEach = fs.Int("burst-every", 50, "completed requests between bursts")
		kills     = fs.String("kill", "", "comma-separated pid@afterN clauses: SIGTERM pid once N requests completed")
		max5xx    = fs.Int("max-5xx", 0, "tolerated failed requests (5xx answers plus requests lost on every target) before exiting nonzero; the chaos drill asserts each 5xx itself")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-request client timeout")
		warmup    = fs.Duration("warmup", 30*time.Second, "how long to wait for every target's /healthz")
		benchOut  = fs.String("bench-out", "", "merge latency quantiles into this BENCH_<date>.json")
		benchName = fs.String("bench-name", "LoadCluster", "record name for -bench-out")
		out       = fs.String("out", "", "write the JSON summary here as well as stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var bases []string
	for _, a := range strings.Split(*targets, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		bases = append(bases, strings.TrimRight(a, "/"))
	}
	tmpl, err := url.ParseQuery(*baseQuery)
	switch {
	case *scenario != "fleet" && *scenario != "selfcheck" && *scenario != "chaos":
		return fmt.Errorf("-scenario %q: want fleet, selfcheck or chaos", *scenario)
	case len(bases) == 0:
		return errors.New("-targets is required")
	case *scenario != "fleet" && len(bases) != 1:
		return fmt.Errorf("-scenario %s drives exactly one target, got %d", *scenario, len(bases))
	case *keys < 1 || *n < 0 || *concurrency < 1:
		return errors.New("-keys and -concurrency must be >= 1, -n >= 0")
	case !(*zipfS > 1):
		return fmt.Errorf("-zipf-s %v: want s > 1 (zipf has no distribution for s <= 1)", *zipfS)
	case *burst < 0 || *burstEach < 1:
		return errors.New("-burst must be >= 0 and -burst-every >= 1")
	case err != nil:
		return fmt.Errorf("-base-query: %w", err)
	}
	killPlan, err := parseKills(*kills)
	if err != nil {
		return err
	}

	r := &loadRun{
		client: &http.Client{Timeout: *timeout},
		bases:  bases,
		sem:    make(chan struct{}, *concurrency),
		kills:  killPlan,
		sum:    Summary{Scenario: *scenario, Targets: bases},
		first:  map[string][]byte{},
	}
	if err := waitHealthy(r.client, bases, *warmup); err != nil {
		return err
	}
	switch *scenario {
	case "fleet":
		err = r.fleet(tmpl, *keys, *grid0, *n, *zipfS, *seed, *burst, *burstEach)
	case "selfcheck":
		err = r.selfcheck(*baseQuery, *n)
	case "chaos":
		err = r.chaos(*baseQuery, tmpl, *n)
	}
	if err != nil {
		return err
	}

	sum := r.summary()
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	stdout.Write(blob)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
	}
	if *benchOut != "" {
		if err := benchdiff.MergeRecord(*benchOut, sum.record(*benchName)); err != nil {
			return fmt.Errorf("bench-out: %w", err)
		}
	}
	// A request lost on every target failed as surely as a 5xx did. The
	// chaos drill provokes 5xx on purpose and asserts each one itself.
	failed := sum.Transport
	if *scenario != "chaos" {
		failed += sum.Status5xx
	}
	if failed > *max5xx {
		return fmt.Errorf("%d requests failed: %d 5xx, %d lost on every target (max %d)",
			failed, sum.Status5xx, sum.Transport, *max5xx)
	}
	return nil
}

// fleet is the load scenario: a deterministic cold sweep, then seeded
// zipf traffic with optional bursts and kills.
func (r *loadRun) fleet(tmpl url.Values, keys, grid0, n int, zipfS float64, seed uint64, burst, burstEvery int) error {
	// The key population: variant i is the base query with grid=grid0+i
	// — distinct grids are distinct plan keys, so the sweep's cold-key
	// count is exactly -keys.
	variants := make([]string, keys)
	for i := range variants {
		variants[i] = variant(tmpl, "grid", strconv.Itoa(grid0+i))
	}

	// Phase 1: deterministic sweep — every variant exactly once, round-
	// robin over targets. Sequential on purpose: concurrent cold keys
	// would still measure once each (singleflight), but sequencing makes
	// the sweep's timing reproducible and keeps the measurement load off
	// the burst machinery. Sweep answers may have executed worlds, so
	// byte identity starts after it.
	for i, qs := range variants {
		r.predict(i%len(r.bases), qs)
	}
	r.sum.Sweep = r.completed.Load()

	// Phase 2: zipf traffic with optional bursts. The popularity draw and
	// the per-request target rotation both derive from -seed, so two runs
	// against identical fleets issue the identical request schedule.
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	launch := func(target int, qs string) {
		r.launch(func() error {
			// A lost request is tallied, and fails the exit check.
			res, _ := r.predict(target%len(r.bases), qs)
			return r.same(qs, res)
		})
	}
	for i := 0; i < n; i++ {
		r.fireKills()
		launch(i, variants[zipf.Uint64()])
		if burst > 0 && i > 0 && i%burstEvery == 0 {
			// A volley for the hottest key: the shape that drives a
			// non-owner past the replication threshold.
			for b := 0; b < burst; b++ {
				launch(i+b, variants[0])
			}
		}
	}
	err := r.wait()
	r.fireKills()
	return err
}

// variant returns tmpl with each key of the kv pairs set (not appended:
// the server rejects a repeated parameter), encoded as a query string.
func variant(tmpl url.Values, kv ...string) string {
	v := url.Values{}
	for key, vals := range tmpl {
		v[key] = append([]string(nil), vals...)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return v.Encode()
}

// killClause is one pid@afterN trigger.
type killClause struct {
	pid   int
	after int64
	fired bool
}

func parseKills(s string) ([]*killClause, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var plan []*killClause
	for _, clause := range strings.Split(s, ",") {
		pidS, afterS, ok := strings.Cut(strings.TrimSpace(clause), "@")
		if !ok {
			return nil, fmt.Errorf("kill clause %q: want pid@afterN", clause)
		}
		pid, err := strconv.Atoi(pidS)
		if err != nil || pid <= 0 {
			return nil, fmt.Errorf("kill clause %q: bad pid", clause)
		}
		after, err := strconv.ParseInt(afterS, 10, 64)
		if err != nil || after < 0 {
			return nil, fmt.Errorf("kill clause %q: bad request count", clause)
		}
		plan = append(plan, &killClause{pid: pid, after: after})
	}
	return plan, nil
}

func waitHealthy(client *http.Client, bases []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, base := range bases {
		for {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("target %s never became healthy (%v)", base, budget)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// loadRun accumulates results across the concurrent request workers.
type loadRun struct {
	client    *http.Client
	bases     []string
	sem       chan struct{} // -concurrency worker slots
	wg        sync.WaitGroup
	completed atomic.Int64
	kills     []*killClause // dispatcher-only: fireKills runs on one goroutine

	mu        sync.Mutex
	sum       Summary // tallies; summary adds the request count and quantiles
	latencies []time.Duration
	first     map[string][]byte // first post-sweep 200 /predict body per query
	errs      []error           // failed checks from launched workers
}

// result is one answered GET.
type result struct {
	status  int
	header  http.Header
	body    []byte
	elapsed time.Duration
	tries   int
}

// get issues GET path starting at target start, retrying each remaining
// target in rotation on transport failure — a killed node's listener
// refuses, the next target answers. The error reports a request lost on
// every target.
func (r *loadRun) get(start int, path string) (result, error) {
	begin := time.Now()
	var lastErr error
	for attempt := 0; attempt < len(r.bases); attempt++ {
		resp, err := r.client.Get(r.bases[(start+attempt)%len(r.bases)] + path)
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				return result{resp.StatusCode, resp.Header, body, time.Since(begin), attempt + 1}, nil
			}
		}
		lastErr = err // connection refused / reset: try the next target
	}
	return result{elapsed: time.Since(begin), tries: len(r.bases)},
		fmt.Errorf("GET %s lost on every target: %w", path, lastErr)
}

// get200 fetches a probe endpoint from the first target and fails on
// anything but a 200. Probes are not tallied: the summary describes
// /predict traffic.
func (r *loadRun) get200(path string) ([]byte, error) {
	res, err := r.get(0, path)
	if err == nil && res.status != http.StatusOK {
		err = fmt.Errorf("GET %s = %d: %s", path, res.status, res.body)
	}
	return res.body, err
}

// predict GETs /predict?qs starting at target start and tallies the
// outcome into the run's summary.
func (r *loadRun) predict(start int, qs string) (result, error) {
	res, err := r.get(start, "/predict?"+qs)
	r.completed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, res.elapsed)
	r.sum.Retries += res.tries - 1
	switch {
	case err != nil:
		r.sum.Transport++
	case res.status >= 500:
		r.sum.Status5xx++
		if res.status == http.StatusServiceUnavailable {
			r.sum.Status503++
		}
	case res.status >= 400:
		r.sum.Status4xx++
	default:
		r.sum.Status2xx++
	}
	return res, err
}

// same holds a warm /predict answer to byte identity: the first 200
// body seen for qs is the reference every later 200 must equal, and
// none may carry an X-Degraded tag. Other statuses are tallied by
// predict, not compared.
func (r *loadRun) same(qs string, res result) error {
	if res.status != http.StatusOK {
		return nil
	}
	if d := res.header.Get("X-Degraded"); d != "" {
		return fmt.Errorf("warm /predict?%s answered degraded (X-Degraded: %s)", qs, d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.first[qs]
	if !ok {
		r.first[qs] = res.body
		return nil
	}
	if !bytes.Equal(ref, res.body) {
		return fmt.Errorf("warm /predict?%s drifted from its first answer:\n%s\nnow:\n%s", qs, ref, res.body)
	}
	return nil
}

// launch runs fn on a worker once one of the -concurrency slots frees;
// an error fn returns fails the run at the next wait.
func (r *loadRun) launch(fn func() error) {
	r.sem <- struct{}{}
	r.wg.Add(1)
	go func() {
		defer func() { <-r.sem; r.wg.Done() }()
		if err := fn(); err != nil {
			r.mu.Lock()
			r.errs = append(r.errs, err)
			r.mu.Unlock()
		}
	}()
}

// wait joins every launched worker and returns their failed checks.
func (r *loadRun) wait() error {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return errors.Join(r.errs...)
}

// fireKills triggers any kill clause whose request threshold has been
// reached. Called from the dispatcher loop, so kills land between
// launches at a deterministic point in the schedule.
func (r *loadRun) fireKills() {
	done := r.completed.Load()
	for _, k := range r.kills {
		if k.fired || done < k.after {
			continue
		}
		k.fired = true
		if err := syscall.Kill(k.pid, syscall.SIGTERM); err != nil {
			fmt.Fprintf(os.Stderr, "kcload: kill %d: %v\n", k.pid, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "kcload: sent SIGTERM to %d after %d requests\n", k.pid, done)
		r.mu.Lock()
		r.sum.Killed = append(r.sum.Killed, k.pid)
		r.mu.Unlock()
	}
}

// Summary is the run's JSON report; every scenario writes the same
// shape, counting /predict requests only.
type Summary struct {
	Scenario  string   `json:"scenario"`
	Targets   []string `json:"targets"`
	Requests  int      `json:"requests"`
	Sweep     int64    `json:"sweep"`
	Status2xx int      `json:"status_2xx"`
	Status4xx int      `json:"status_4xx"`
	Status5xx int      `json:"status_5xx"`
	Status503 int      `json:"status_503"`
	Transport int      `json:"transport_failures"`
	Retries   int      `json:"retries"`
	Killed    []int    `json:"killed_pids,omitempty"`
	P50Ns     int64    `json:"p50_ns"`
	P99Ns     int64    `json:"p99_ns"`
	P999Ns    int64    `json:"p999_ns"`
}

func (r *loadRun) summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := r.sum
	s.Requests = len(sorted)
	s.P50Ns = quantile(sorted, 0.50).Nanoseconds()
	s.P99Ns = quantile(sorted, 0.99).Nanoseconds()
	s.P999Ns = quantile(sorted, 0.999).Nanoseconds()
	return s
}

// quantile is the nearest-rank p-quantile of ascending-sorted d, zero
// when d is empty.
func quantile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[int(p*float64(len(d)-1))]
}

// record is the summary as one benchdiff.MergeRecord record; the shed
// rate (503s per request) rides along when anything shed.
func (s Summary) record(name string) map[string]any {
	metrics := map[string]any{
		"p50-ns":    s.P50Ns,
		"p99-ns":    s.P99Ns,
		"p999-ns":   s.P999Ns,
		"count-5xx": s.Status5xx,
		"retries":   s.Retries,
	}
	if s.Status503 > 0 {
		metrics["shed-rate-%"] = 100 * float64(s.Status503) / float64(s.Requests)
	}
	return map[string]any{"name": name, "cpus": 0, "iterations": s.Requests, "metrics": metrics}
}
