package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/predict"
	"repro/internal/tables"
)

const fleetNodes = 3

var benches = []string{"BT", "SP", "LU"}

func key(bench string, grid, trips, procs int, chains string, blocks int, backend string) string {
	k := fmt.Sprintf("bench=%s&grid=%d&trips=%d&procs=%d&chains=%s&blocks=%d", bench, grid, trips, procs, chains, blocks)
	if backend != "" {
		k += "&backend=" + backend
	}
	return k
}

// fleetPop is fleet-wide's key population, three classes laid out one
// after another: measured keys served from the cache warmed at set-up,
// interpolated pins between two warmed lattice points per benchmark,
// and analytic pins over a wide grid × procs × trips range. Requests
// draw uniformly over the whole population. It is wide enough that a
// run of tens of thousands of requests seldom repeats a key: an answer
// memo has little to reuse, and no key recurs on a node often enough to
// cross the cluster's replication threshold (8 requests in 10 s), so
// capacity does not depend on how much the goodput steps sent before.
type fleetPop struct {
	measured []string // the lattice points are among them
	lattice  []string
}

// Class sizes of the synthetic pins, per benchmark.
const (
	interpGrids      = 3    // grids 7, 8, 9: between the lattice's 6 and 10
	interpTrips      = 1000 // trips 1..interpTrips
	analyticGrids    = 128  // grids 8, 10, ..., 262
	analyticProcs    = 5    // procs 1, 2, 4, 8, 16
	analyticTrips    = 128  // trips 1..analyticTrips
	interpPerBench   = interpGrids * interpTrips * 2
	analyticPerBench = analyticGrids * analyticProcs * analyticTrips
)

func newFleetPop() fleetPop {
	var p fleetPop
	for _, b := range benches {
		for _, g := range []int{6, 8} {
			for _, procs := range []int{1, 4} {
				for _, c := range []string{"2", "2,3"} {
					p.measured = append(p.measured, key(b, g, 2, procs, c, 1, ""))
				}
			}
		}
		// The grid-6 lattice point is one of the measured keys above.
		p.lattice = append(p.lattice, key(b, 6, 2, 4, "2,3", 1, ""), key(b, 10, 2, 4, "2,3", 1, ""))
		p.measured = append(p.measured, p.lattice[len(p.lattice)-1])
	}
	return p
}

func (p fleetPop) interpolatedStart() int { return len(p.measured) }
func (p fleetPop) analyticStart() int     { return len(p.measured) + len(benches)*interpPerBench }

func (p fleetPop) population() population {
	return population{n: p.analyticStart() + len(benches)*analyticPerBench, raw: p.raw}
}

// raw builds key i of the population.
func (p fleetPop) raw(i int) string {
	if i < len(p.measured) {
		return p.measured[i]
	}
	if i -= len(p.measured); i < len(benches)*interpPerBench {
		b, i := benches[i/interpPerBench], i%interpPerBench
		g, i := 7+i/(interpTrips*2), i%(interpTrips*2)
		return key(b, g, 1+i/2, 4, []string{"2", "2,3"}[i%2], 1, "interpolated")
	}
	i -= len(benches) * interpPerBench
	b, i := benches[i/analyticPerBench], i%analyticPerBench
	g, i := 8+2*(i/(analyticProcs*analyticTrips)), i%(analyticProcs*analyticTrips)
	procs, trips := 1<<(i/analyticTrips), 1+i%analyticTrips
	return key(b, g, trips, procs, []string{"2", "2,3"}[trips%2], 1, "analytic")
}

// coldPool is the pool cold-fill keys are drawn from: keys of similar
// cost that no set-up measures. Each has its own trip count, so no key's
// jobs are a subset of another's and every one must be measured.
func coldPool(bench string) []string {
	var pool []string
	for trips := 3; trips <= 6; trips++ {
		pool = append(pool, key(bench, 6, trips, 4, []string{"2", "2,3"}[trips%2], 1, ""))
	}
	return pool
}

// coldKeysPerBench is how many cold keys each run draws per benchmark.
const coldKeysPerBench = 2

// runFleetWide drives three peer-filling nodes over one shared cache
// directory: round-robin requests drawn uniformly over a wide
// population, then a cold-fill phase of never-measured keys, each sent
// to two nodes at once and measured on demand by its owner.
func runFleetWide(r *run) error {
	fp := newFleetPop()
	pop := fp.population()
	measuredKeys, err := parseKeys(fp.measured)
	if err != nil {
		return err
	}
	latticeKeys, err := parseKeys(fp.lattice)
	if err != nil {
		return err
	}
	measured, lattice := predictQueries(measuredKeys), predictQueries(latticeKeys)

	rng := rand.New(rand.NewSource(r.seed))
	var coldRaw []string
	for _, b := range benches {
		pool := coldPool(b)
		for _, i := range rng.Perm(len(pool))[:coldKeysPerBench] {
			coldRaw = append(coldRaw, pool[i])
		}
	}
	cold, err := parseKeys(coldRaw)
	if err != nil {
		return err
	}
	spec := fleetLoad
	spec.pick = func(g *rand.Rand) int { return g.Intn(pop.n) }

	s, setup, err := r.setUpRepeated(setupRepeats, func() (*served, error) {
		return r.setUpServed(measured, pop, len(measured), nodeOpts{count: fleetNodes, measure: true, lattice: lattice, spans: r.spans})
	})
	if err != nil {
		return err
	}
	defer s.close()
	coldPhase := func() error {
		fills, shared := s.coldFill(rng, cold)
		r.logf("cold fill: %d keys, %d requests, median %v, p90 %v; singleflight shared %.2f",
			len(cold), len(fills), quantile(sortedCopy(fills), 0.5), quantile(sortedCopy(fills), 0.9), shared)
		if r.traced {
			r.set("serve.cold_fill_ms", us(quantile(sortedCopy(fills), 0.5))/1e3, "ms")
			r.set("singleflight.shared_frac", shared, "ratio")
		}
		return nil
	}
	var before map[string]int64
	if r.traced {
		before = r.fleetCounters(s.client, s.nodes)
	}
	return r.serving(s, rng, spec, setup, coldPhase, func() error {
		r.routingStats(s, before)
		n0 := s.nodes[0]
		// Fleet keys are small studies, where the stages the ledger
		// names leave a larger share of RunFromCacheCtx (provenance
		// assembly) unaccounted; the gate is warm-hot's, here the gap is
		// reported only.
		if err := r.warmPathProbe(measured, n0.cache, false); err != nil {
			return err
		}
		interp, err := classSample(pop, fp.interpolatedStart(), fp.analyticStart())
		if err != nil {
			return err
		}
		analytic, err := classSample(pop, fp.analyticStart(), pop.n)
		if err != nil {
			return err
		}
		cfg := tables.BackendConfig{Cache: n0.cache, Lattice: lattice}
		for _, b := range []struct {
			name string
			qs   []predict.Query
		}{{"cached", measured}, {"interpolated", interp}, {"analytic", analytic}} {
			if err := r.backendProbe(b.name, cfg, b.qs); err != nil {
				return err
			}
		}
		sample, err := pop.sample(parseKeySample)
		if err != nil {
			return err
		}
		ids := make([]string, len(sample))
		for i, k := range sample {
			ids[i] = k.q.Key()
		}
		d := perCall(len(ids), func() {
			for _, id := range ids {
				n0.cl.Owner(id)
			}
		})
		r.set("cluster.owner_ns", float64(d.Nanoseconds()), "ns")
		return nil
	})
}

// classSample parses probeQueries keys evenly spaced over the
// population's class [lo, hi).
func classSample(pop population, lo, hi int) ([]predict.Query, error) {
	class := population{n: hi - lo, raw: func(i int) string { return pop.raw(lo + i) }}
	keys, err := class.sample(probeQueries)
	if err != nil {
		return nil, err
	}
	return predictQueries(keys), nil
}

// routingStats reports the fleet's routing mix since before, from the
// counters /metrics exposes: the share of /predict requests proxied to
// their owner and the share answered from a local replica.
func (r *run) routingStats(s *served, before map[string]int64) {
	after := r.fleetCounters(s.client, s.nodes)
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	reqs := d("serve.req.predict.count")
	if reqs == 0 {
		return
	}
	r.set("cluster.proxied_frac", d("cluster.proxied")/reqs, "ratio")
	r.set("cluster.replica_hit_frac", d("cluster.replica.hits")/reqs, "ratio")
	r.logf("routing over %.0f /predict requests: proxied %.3f, replica hits %.3f, fill fallbacks %.0f",
		reqs, d("cluster.proxied")/reqs, d("cluster.replica.hits")/reqs, d("cluster.fill.fallback"))
}

// coldFill sends each cold key to two distinct nodes at once. Both
// answers must be 200 and byte-identical, and the fleet must measure
// each key exactly once. It returns the client-seen latencies and the
// share of resolutions that joined another's flight.
func (s *served) coldFill(rng *rand.Rand, cold []servedKey) ([]time.Duration, float64) {
	before := s.r.fleetCounters(s.client, s.nodes)
	var lats []time.Duration
	for _, k := range cold {
		first := rng.Intn(len(s.nodes))
		targets := []int{first, (first + 1 + rng.Intn(len(s.nodes)-1)) % len(s.nodes)}
		bodies := make([][]byte, len(targets))
		errs := make([]error, len(targets))
		took := make([]time.Duration, len(targets))
		var wg sync.WaitGroup
		for i, n := range targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := s.nodes[n].base() + "/predict?" + k.raw
				t0 := time.Now()
				errs[i] = s.client.get(u, 0, 0, func(status int, body []byte) error {
					if status != http.StatusOK {
						return fmt.Errorf("GET %s = %d: %s", u, status, bytes.TrimSpace(body))
					}
					bodies[i] = append([]byte(nil), body...)
					return nil
				})
				took[i] = time.Since(t0)
			}()
		}
		wg.Wait()
		for i := range targets {
			s.r.tally.op(errs[i])
			if errs[i] == nil {
				lats = append(lats, took[i])
			}
		}
		if errs[0] == nil && errs[1] == nil && !bytes.Equal(bodies[0], bodies[1]) {
			s.r.tally.fail(fmt.Errorf("cold key %s: %w between nodes", k.raw, errBodyDiffers))
		}
	}
	after := s.r.fleetCounters(s.client, s.nodes)
	measured := after["serve.measure.ondemand"] - before["serve.measure.ondemand"]
	s.r.tally.op(nil)
	if measured != int64(len(cold)) {
		s.r.tally.fail(fmt.Errorf("fleet measured %d studies on demand for %d distinct cold keys", measured, len(cold)))
	}
	shared := after["serve.singleflight.shared"] - before["serve.singleflight.shared"]
	analyses := after["serve.analysis.count"] - before["serve.analysis.count"]
	var frac float64
	if shared+analyses > 0 {
		frac = float64(shared) / float64(shared+analyses)
	}
	return lats, frac
}
