package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/tables"
)

// Layer probes time calls into one layer's public functions from
// outside, serially, on the workload's own warmed state. Each is run
// after the traffic phases, so it never competes with them.

// probeRounds is how many timed rounds each probe takes its median over.
const probeRounds = 41

// perCall times rounds of fn and returns the median duration of one
// round divided by perRound, the number of calls a round makes.
func perCall(perRound int, fn func()) time.Duration {
	return medians(probeRounds, fn)[0] / time.Duration(perRound)
}

// medians times rounds of every fn, each called once per round in turn,
// and returns each fn's median round. Interleaving the stages round by
// round makes a drift in host speed during the probe hit each of them
// alike, so stages timed apart can still be summed and compared.
func medians(rounds int, fns ...func()) []time.Duration {
	ds := make([][]time.Duration, len(fns))
	for round := 0; round < rounds; round++ {
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			ds[i] = append(ds[i], time.Since(t0))
		}
	}
	out := make([]time.Duration, len(fns))
	for i := range ds {
		out[i] = quantile(sortedCopy(ds[i]), 0.5)
	}
	return out
}

// ledgerRounds is how many interleaved rounds the warm path ledger takes
// its per-stage medians over, for each query.
const ledgerRounds = 101

// engineFor builds the measurement engine the serving layer builds for
// a query: the canonical problem, workload and world digest, three
// actual runs. The guard's retry wiring is left out; the from-cache path
// never retries.
func engineFor(q predict.Query, cache *plan.Cache) (harness.Engine, error) {
	prob, err := tables.PredictProblem(q)
	if err != nil {
		return harness.Engine{}, err
	}
	w, err := tables.NewWorkload(q.Bench, q.Class, prob, q.Procs, nil)
	if err != nil {
		return harness.Engine{}, err
	}
	return harness.Engine{Workload: w, Opts: harness.Options{
		Blocks: q.Blocks, Passes: q.Passes, ActualRuns: 3,
		Cache:       cache,
		WorldDigest: tables.WorldDigest(prob, nil),
	}}, nil
}

// sumGapLimit is how far, as a share of RunFromCacheCtx, the separately
// timed Plan + Σ Cache.Get + Analyze may fall from it.
const sumGapLimit = 0.15

// warmPathProbe splits the warm path of each measured query into its
// stages, each timed on its own: Engine.Plan + Σ Cache.Get + Analyze
// against RunFromCacheCtx, interleaved round by round. Per-query medians
// are averaged over the queries. With gate set, a gap beyond sumGapLimit is a failed
// operation: the ledger must account for the warm path it claims to
// split. Otherwise the gap is only reported.
func (r *run) warmPathProbe(qs []predict.Query, cache *plan.Cache, gate bool) error {
	ctx := context.Background()
	var fromCache, planOnly, planKeys, gets, analyze time.Duration
	var jobs, getCalls int
	for _, q := range qs {
		eng, err := engineFor(q, cache)
		if err != nil {
			return err
		}
		st, err := eng.RunFromCacheCtx(ctx, q.Trips, q.Chains)
		r.tally.op(err)
		if err != nil {
			continue
		}
		js, err := eng.Plan(q.Trips, q.Chains)
		if err != nil {
			return err
		}
		for _, j := range js {
			if _, ok := cache.Get(j); !ok {
				r.tally.fail(fmt.Errorf("warm path probe: %s missing from the cache", j.Label()))
				return nil
			}
		}
		jobs += len(js)
		getCalls += len(js)
		// Every stage succeeded once above; the timed repeats discard
		// their results.
		d := medians(ledgerRounds,
			func() { eng.RunFromCacheCtx(ctx, q.Trips, q.Chains) },
			func() { eng.Plan(q.Trips, q.Chains) },
			func() {
				js, _ := eng.Plan(q.Trips, q.Chains)
				for _, j := range js {
					_ = j.Key()
				}
			},
			func() {
				for _, j := range js {
					cache.Get(j)
				}
			},
			func() {
				harness.Analyze(st.App, st.Measurements, st.Actual, q.Chains, nil, false)
			})
		fromCache += d[0]
		planOnly += d[1]
		planKeys += d[2]
		gets += d[3]
		analyze += d[4]
	}
	n := time.Duration(len(qs))
	parts := planOnly + gets + analyze
	gap := float64(fromCache-parts) / float64(fromCache)
	r.logf("warm path ledger over %d queries: RunFromCacheCtx %v = Plan %v + Σ Cache.Get %v + Analyze %v + rest %v (gap %.1f%%, limit %.0f%%)",
		len(qs), fromCache/n, planOnly/n, gets/n, analyze/n, (fromCache-parts)/n, gap*100, sumGapLimit*100)
	if gate {
		r.tally.op(nil)
	}
	if gate && (gap > sumGapLimit || gap < -sumGapLimit) {
		r.tally.fail(fmt.Errorf("warm path stages sum to %v, RunFromCacheCtx takes %v: gap %.1f%% beyond %.0f%%",
			parts/n, fromCache/n, gap*100, sumGapLimit*100))
	}
	r.set("harness.from_cache_us", us(fromCache/n), "us")
	r.set("plan.key_us", us(planKeys/n), "us")
	r.set("plan.jobs_per_query", float64(jobs)/float64(len(qs)), "count")
	r.set("plan.cache_get_ns", float64(gets.Nanoseconds())/float64(getCalls), "ns")
	r.set("harness.analyze_us", us(analyze/n), "us")
	r.set("ledger.sum_gap_pct", gap*100, "%")
	return nil
}

// parseKeySample is how many keys of the population parseKeyProbe
// times, evenly spaced over it.
const parseKeySample = 1024

// parseKeyProbe times serve.ParseQuery plus Query.Key over keys.
func (r *run) parseKeyProbe(keys []servedKey) {
	vals := make([]url.Values, len(keys))
	for i, k := range keys {
		vals[i], _ = url.ParseQuery(k.raw)
	}
	d := perCall(len(vals), func() {
		for _, v := range vals {
			q, err := serve.ParseQuery(v)
			if err == nil {
				_ = q.Key()
			}
		}
	})
	r.set("serve.parse_key_ns", float64(d.Nanoseconds()), "ns")
}

// handlerProbe calls the node's guarded handler and an unguarded server
// over the same cache on a recorder, alternating, for every key of the
// population (keys, in population order). It reports the guarded
// handler time, the guard's share of it, and the allocations per
// guarded request; every answer is checked like a client-seen one.
func (r *run) handlerProbe(s *served, keys []servedKey) error {
	n := s.nodes[0]
	plain, err := serve.New(serve.Config{
		Cache:   n.cache,
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(0, 0)}),
	})
	if err != nil {
		return err
	}
	guarded, unguarded := n.srv.Handler(), plain.Handler()
	reqs := make([]*http.Request, len(keys))
	for k, key := range keys {
		reqs[k] = httptest.NewRequest(http.MethodGet, "/predict?"+key.raw, nil)
	}
	check := func(k int, rec *httptest.ResponseRecorder) {
		r.tally.op(s.check(k, "handler probe", rec.Code, rec.Body.Bytes()))
	}
	var withGuard, without []time.Duration
	for round := 0; round < probeRounds; round++ {
		for k, req := range reqs {
			for _, h := range []http.Handler{guarded, unguarded} {
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				d := time.Since(t0)
				check(k, rec)
				if h == guarded {
					withGuard = append(withGuard, d)
				} else {
					without = append(without, d)
				}
			}
		}
	}
	// Allocations are counted over guarded calls alone, with the
	// recorders made beforehand so only the handler's own count.
	recs := make([]*httptest.ResponseRecorder, probeRounds*len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, rec := range recs {
		guarded.ServeHTTP(rec, reqs[i%len(reqs)])
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		check(i%len(reqs), rec)
	}
	g, u := quantile(sortedCopy(withGuard), 0.5), quantile(sortedCopy(without), 0.5)
	r.set("serve.handler_us", us(g), "us")
	r.set("guard.overhead_us", us(g-u), "us")
	r.set("serve.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(len(recs)), "count")
	r.logf("handler probe: guarded %v, unguarded %v, %.0f allocs per guarded request", g, u,
		float64(after.Mallocs-before.Mallocs)/float64(len(recs)))
	return nil
}

// probeQueries bounds how many queries of a class a backend probe
// times.
const probeQueries = 24

// spread returns at most n of qs, evenly spaced over the slice.
func spread(qs []predict.Query, n int) []predict.Query {
	if len(qs) <= n {
		return qs
	}
	out := make([]predict.Query, n)
	for i := range out {
		out[i] = qs[i*len(qs)/n]
	}
	return out
}

// backendProbe times Chain.Predict of a single-backend chain built by
// tables.NewBackendChain over (at most probeQueries of) the queries,
// checking each answers.
func (r *run) backendProbe(name string, cfg tables.BackendConfig, qs []predict.Query) error {
	qs = spread(qs, probeQueries)
	if len(qs) == 0 {
		return nil
	}
	chain, err := tables.NewBackendChain(nil, []string{name}, cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, q := range qs {
		_, err := chain.Predict(ctx, q)
		r.tally.op(err)
		if err != nil {
			return nil
		}
	}
	// Every query answered once above; the timed repeats discard results.
	d := perCall(len(qs), func() {
		for _, q := range qs {
			chain.Predict(ctx, q)
		}
	})
	r.set("predict."+name+"_us", us(d), "us")
	return nil
}

// diskReads is how many cache entries the nodes loaded from disk: each
// node's in-memory entries less those it measured and stored itself.
func (r *run) diskReads(c *client, nodes []*node) {
	var reads int64
	for _, n := range nodes {
		cs, err := c.counters(n)
		r.tally.op(err)
		reads += int64(n.cache.Len()) - cs["harness.cache.miss"]
	}
	r.set("plan.disk_reads", float64(reads), "count")
}

// requestStats derives per-request layer metrics from the traced pass's
// fixed-rate requests: transport time (client span minus the edge
// handler span it caused) and peer-fill round trips.
func (r *run) requestStats(spans []span) {
	client := map[int64]span{}
	for _, sp := range spans {
		if sp.Name == spanRequest {
			client[sp.ID] = sp
		}
	}
	var transport, fills []time.Duration
	edge := map[int64]bool{}
	for _, sp := range spans {
		if c, ok := client[sp.Parent]; ok && sp.Name == "serve.handler" {
			transport = append(transport, c.dur()-sp.dur())
			edge[sp.ID] = true
		}
	}
	for _, sp := range spans {
		if sp.Name == "cluster.fill" && edge[sp.Parent] {
			fills = append(fills, sp.dur())
		}
	}
	r.set("http.transport_us", us(quantile(sortedCopy(transport), 0.5)), "us")
	if len(fills) > 0 {
		r.set("cluster.fill_us", us(quantile(sortedCopy(fills), 0.5)), "us")
	}
}
