package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
)

// selfcheck is the serving contract of one warm node: every endpoint
// answers 200, /predict bodies are byte-identical at any concurrency, a
// warm cache executes zero worlds, responses carry trace IDs, the
// service's own counters saw the traffic, and the retained traces
// account for the wall time they report. Anything flaky here against a
// race-built server is a real serving bug.
func (r *loadRun) selfcheck(query string, n int) error {
	// The warm line first: every later body must equal it byte for byte
	// — so tracing, which stamps the header, never leaks into the
	// payload.
	ref, err := r.warm(query)
	if err != nil {
		return err
	}
	if !bytes.Contains(ref.body, []byte(`"executed": 0`)) {
		return fmt.Errorf("/predict is executing worlds on a warm cache:\n%s", ref.body)
	}
	if ref.header.Get("X-Trace-Id") == "" {
		return errors.New("/predict response carries no X-Trace-Id (request tracing is not wired)")
	}

	paths := []string{"/predict?" + query, "/healthz", "/metrics", "/couplings?" + query}
	for i := 0; i < max(n, 1); i++ {
		r.launch(func() error {
			if _, err := r.warm(query); err != nil {
				return err
			}
			_, err := r.get200(paths[i%len(paths)])
			return err
		})
	}
	if err := r.wait(); err != nil {
		return err
	}

	// The collapse must be visible on the service's own counters: with
	// singleflight working, analyses never exceed requests and shared
	// flights show up once contention happens. (Exact counts depend on
	// scheduling; the hard invariant is analyses <= predict requests.)
	metrics, err := r.get200("/metrics")
	if err != nil {
		return err
	}
	if !bytes.Contains(metrics, []byte("serve.analysis.count")) {
		return fmt.Errorf("/metrics missing serve.analysis.count:\n%s", metrics)
	}
	if !bytes.Contains(metrics, []byte("serve.req.predict.p50_ns")) {
		return fmt.Errorf("/metrics missing sliding-window quantiles:\n%s", metrics)
	}
	prom, err := r.get200("/metrics?format=prom")
	if err != nil {
		return err
	}
	if !bytes.Contains(prom, []byte("# TYPE serve_analysis_count counter")) {
		return fmt.Errorf("/metrics?format=prom is not Prometheus text exposition:\n%.512s", prom)
	}

	// The flight recorder must have seen the traffic this client just
	// generated, and the retained /predict traces must account for the
	// wall time they report: every trace carries the full stage
	// structure (parse, singleflight, respond), and across all of them
	// the stage spans cover >=95% of the wall time. The coverage bound is
	// aggregate rather than per-trace because an individual request can
	// lose a scheduler quantum between its epoch and its first span —
	// that is preemption, not an untraced serving stage.
	dump, err := r.get200("/debug/requests")
	if err != nil {
		return err
	}
	var flight obs.FlightDump
	if err := json.Unmarshal(dump, &flight); err != nil {
		return fmt.Errorf("/debug/requests: %w\n%s", err, dump)
	}
	if flight.Seen == 0 || len(flight.Slowest) == 0 {
		return fmt.Errorf("/debug/requests saw no traffic after %d requests:\n%s", n, dump)
	}
	var total, covered int64
	checked := 0
	for _, t := range flight.Slowest {
		if t.Endpoint != "predict" || t.Status != http.StatusOK {
			continue
		}
		checked++
		stages := map[string]bool{}
		for _, c := range t.Root.Children {
			covered += c.DurNs
			stages[c.Name] = true
		}
		total += t.TotalNs
		for _, want := range []string{"parse", "singleflight", "respond"} {
			if !stages[want] {
				return fmt.Errorf("trace %s: missing %q stage span", t.ID, want)
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("/debug/requests retained no /predict traces:\n%s", dump)
	}
	if total > 0 && covered*100 < total*95 {
		return fmt.Errorf("spans cover %d of %d ns across %d /predict traces (<95%%) — a serving stage is untraced",
			covered, total, checked)
	}
	return nil
}

// chaos is the serving layer's chaos drill: against a hardened node
// (-measure, guard flags, and a fault spec whose measure clause is an
// exhaustible burst like measure:count=2) it drives the full failure
// ladder and verifies every hardening promise at once:
//
//   - warm healthy answers stay byte-identical through the chaos
//   - injected measurement failures open the circuit breaker, fast-fail
//     while it cools down, and a clean probe closes it again
//   - an unanswerable query degrades to a provenance-tagged stale/nearby
//     answer instead of a 5xx
//   - an overload burst sheds deterministically: 503 + Retry-After, and
//     the serve.shed counter matches the 503s the client saw
//   - deadline expiries answer 504 within the budget the 504 names plus
//     scheduling slack
//   - the service drains clean: no stuck inflight or queued gauges
func (r *loadRun) chaos(query string, tmpl url.Values, n int) error {
	// Phase A — healthy warm baseline: two fetches, byte-identical, no
	// worlds executed, no degradation tag.
	ref, err := r.warm(query)
	if err != nil {
		return err
	}
	if !bytes.Contains(ref.body, []byte(`"executed": 0`)) {
		return fmt.Errorf("warm baseline executed worlds:\n%s", ref.body)
	}
	if _, err := r.warm(query); err != nil {
		return err
	}

	// Phase B — degradation with provenance: a never-answered neighbor of
	// the warm key (same family, different blocks). Its on-demand
	// measurement hits the injected failure burst, which opens the
	// breaker; the ladder then serves the warm family answer tagged
	// stale-nearby instead of a 5xx.
	near, err := r.predict(0, variant(tmpl, "blocks", "1"))
	if err != nil {
		return err
	}
	if near.status != http.StatusOK || near.header.Get("X-Degraded") != "stale-nearby" {
		return fmt.Errorf("degraded neighbor: status %d X-Degraded %q (want 200/stale-nearby)\n%s",
			near.status, near.header.Get("X-Degraded"), near.body)
	}
	if !bytes.Contains(near.body, []byte(`"degraded": "stale-nearby"`)) {
		return fmt.Errorf("degraded body carries no provenance field:\n%s", near.body)
	}

	// Phase C — open breaker fast-fails: a cold key in a family with no
	// stale answer cannot degrade, so it sheds 503 with the breaker body.
	coldQS := variant(tmpl, "grid", "6", "trips", "1", "blocks", "1", "chains", "2")
	ff, err := r.predict(0, coldQS)
	if err != nil {
		return err
	}
	if ff.status != http.StatusServiceUnavailable ||
		!bytes.Contains(ff.body, []byte("measure breaker open (failing fast)")) {
		return fmt.Errorf("breaker fast-fail: status %d\n%s", ff.status, ff.body)
	}

	// Phase D — recovery: after the cooldown the next attempt is the
	// half-open probe; the injected burst is exhausted, so the real
	// measurement runs and closes the breaker.
	time.Sleep(1 * time.Second)
	rec, err := r.predict(0, coldQS)
	if err != nil {
		return err
	}
	if rec.status != http.StatusOK || rec.header.Get("X-Degraded") != "" {
		return fmt.Errorf("breaker recovery probe: status %d degraded %q\n%s",
			rec.status, rec.header.Get("X-Degraded"), rec.body)
	}
	if bytes.Contains(rec.body, []byte(`"executed": 0`)) {
		return fmt.Errorf("recovery probe executed nothing — the measurement did not run:\n%s", rec.body)
	}

	// Phase E — overload burst: distinct cold keys, every one a real
	// measurement holding an admission slot. With -max-inflight/-queue
	// small, most of the burst must shed; whatever is admitted either
	// finishes or 504s within its deadline budget plus slack. The burst
	// is only a volley when -concurrency admits all of it at once.
	n = min(max(n, 8), 16)
	burst := make([]result, n)
	for i := range burst {
		qs := variant(tmpl, "grid", "6",
			"trips", fmt.Sprint(1+i%2),
			"blocks", fmt.Sprint(1+(i/2)%2),
			"passes", fmt.Sprint(1+(i/4)%2),
			"chains", fmt.Sprint(2+(i/8)%2))
		r.launch(func() (err error) {
			burst[i], err = r.predict(0, qs)
			return err
		})
	}
	if err := r.wait(); err != nil {
		return err
	}
	var burstShed, burst504, burstOK int
	for _, res := range burst {
		switch res.status {
		case http.StatusOK:
			burstOK++
		case http.StatusServiceUnavailable:
			burstShed++
			shed := bytes.Contains(res.body, []byte("request shed"))
			if !shed && !bytes.Contains(res.body, []byte("breaker open")) {
				return fmt.Errorf("503 without a shed/breaker body:\n%s", res.body)
			}
			if shed && res.header.Get("Retry-After") == "" {
				return errors.New("shed 503 carries no Retry-After header")
			}
		case http.StatusGatewayTimeout:
			burst504++
			budget, err := deadlineBudget(res.body)
			if err != nil {
				return err
			}
			if slack := res.elapsed - budget; slack > 2*time.Second {
				return fmt.Errorf("504 answered %v after a %v budget (slack %v > 2s): deadlines are not bounding latency",
					res.elapsed, budget, slack)
			}
		default:
			return fmt.Errorf("burst request = %d:\n%s", res.status, res.body)
		}
	}
	if burstShed == 0 {
		return fmt.Errorf("overload burst of %d shed nothing (ok=%d, 504=%d) — admission control is not engaging",
			n, burstOK, burst504)
	}

	// Phase F — byte stability through and after the chaos: the warm key
	// keeps serving the exact baseline bytes, fresh and untagged.
	for i := 0; i < 24; i++ {
		if _, err := r.warm(query); err != nil {
			return fmt.Errorf("warm /predict under chaos: %w", err)
		}
	}

	// Phase G — the service's own accounting must agree with the client.
	// Drain is polled briefly: the previous response's deferred gauge
	// decrement races the next request by design.
	var snap obs.Snapshot
	for attempt := 0; ; attempt++ {
		mb, err := r.get200("/metrics")
		if err != nil {
			return err
		}
		snap = obs.Snapshot{}
		if err := json.Unmarshal(mb, &snap); err != nil {
			return fmt.Errorf("/metrics: %w", err)
		}
		if drainErr := drained(snap); drainErr == nil {
			break
		} else if attempt >= 20 {
			return drainErr
		}
		time.Sleep(50 * time.Millisecond)
	}
	counter := func(name string) int64 {
		c, _ := snap.Counter(name)
		return c.Value
	}
	shed503 := r.summary().Status503
	if got := counter("serve.shed"); got != int64(shed503) {
		return fmt.Errorf("serve.shed = %d but the client saw %d 503s — shed accounting drifted", got, shed503)
	}
	if counter("guard.breaker.measure.opened") < 1 {
		return errors.New("breaker never opened under injected failures")
	}
	if counter("guard.breaker.measure.closed") < 1 {
		return errors.New("breaker never closed after recovery")
	}
	if counter("serve.degraded") < 1 {
		return errors.New("no degraded answers were served")
	}
	return nil
}

// warm fetches the warm query and holds it to the byte-identity
// contract: a 200, untagged, equal to the first answer.
func (r *loadRun) warm(query string) (result, error) {
	res, err := r.predict(0, query)
	if err == nil && res.status != http.StatusOK {
		err = fmt.Errorf("warm /predict?%s = %d:\n%s", query, res.status, res.body)
	}
	if err == nil {
		err = r.same(query, res)
	}
	return res, err
}

// deadlineBudget reads the budget a 504 body names, as
// guard.DeadlineError renders it: "deadline budget <d> exceeded".
func deadlineBudget(body []byte) (time.Duration, error) {
	_, rest, ok := strings.Cut(string(body), "deadline budget ")
	d, _, _ := strings.Cut(rest, " ")
	budget, err := time.ParseDuration(d)
	if !ok || err != nil {
		return 0, fmt.Errorf("504 body names no deadline budget:\n%s", body)
	}
	return budget, nil
}

// drained checks a /metrics snapshot for stuck requests after the
// drill's load has returned: serve.inflight must be exactly 1 (the
// in-progress /metrics request observing itself) and the admission
// gauges zero (/metrics is unguarded, so it never occupies a slot).
func drained(snap obs.Snapshot) error {
	gauge := func(name string) (int64, bool) {
		for _, g := range snap.Gauges {
			if g.Name == name {
				return g.Value, true
			}
		}
		return 0, false
	}
	if v, ok := gauge("serve.inflight"); ok && v != 1 {
		return fmt.Errorf("gauge serve.inflight = %d after drain, want 1 (the /metrics request itself) — something is stuck", v)
	}
	for _, name := range []string{"guard.admission.inflight", "guard.admission.queued"} {
		if v, ok := gauge(name); ok && v != 0 {
			return fmt.Errorf("gauge %s = %d after drain, want 0 — something is stuck", name, v)
		}
	}
	return nil
}
