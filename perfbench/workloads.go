package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/predict"
	"repro/internal/tables"
)

// setupRepeats is how many times a run sets its workload up from
// scratch; setup_s is the median.
const setupRepeats = 9

// warmHotKeys is warm-hot's population in popularity order: key 0 is
// the zipf head. Tiny grids keep warming cheap; the warm /predict path
// does not depend on the grid, only on the study's shape (jobs per
// query), which the chain lists vary.
var warmHotKeys = []string{
	"bench=BT&grid=6&trips=2&procs=4&chains=2,3&blocks=1",
	"bench=SP&grid=6&trips=2&procs=4&chains=2&blocks=1",
	"bench=LU&grid=6&trips=2&procs=4&chains=2,3,4&blocks=1",
	"bench=BT&grid=6&trips=2&procs=4&chains=2&blocks=1",
	"bench=SP&grid=6&trips=2&procs=4&chains=2,3,4&blocks=1",
	"bench=LU&grid=6&trips=2&procs=4&chains=2&blocks=1",
	"bench=BT&grid=6&trips=2&procs=4&chains=2,3,4,5&blocks=1",
	"bench=SP&grid=6&trips=2&procs=4&chains=2,3,4,5,6&blocks=1",
	"bench=LU&grid=8&trips=2&procs=4&chains=2,3&blocks=1",
	"bench=BT&grid=8&trips=2&procs=4&chains=2,5&blocks=1",
	"bench=SP&grid=8&trips=2&procs=4&chains=3&blocks=1",
	"bench=LU&grid=6&trips=2&procs=2&chains=2&blocks=1",
	"bench=BT&grid=6&trips=2&procs=1&chains=2,3&blocks=1",
	"bench=SP&grid=6&trips=2&procs=1&chains=2&blocks=1",
	"bench=LU&grid=8&trips=2&procs=1&chains=4&blocks=1",
	"bench=BT&grid=8&trips=3&procs=4&chains=2&blocks=1",
}

// Load settings. The fixed rates sit at a sixth to a tenth of the
// seed's goodput on a 2-CPU host: at half, queueing turns each host stall into
// a burst of late requests and the tail moves several-fold from run to
// run. The saturation rate is over six times the seed's goodput, so a
// several-fold speed-up still leaves the goodput steps saturated.
var (
	warmHotLoad = loadSpec{rate: 1000, satRate: 40000}
	fleetLoad   = loadSpec{rate: 600, satRate: 40000}
)

// Share of --seconds each phase of a serving pass gets. The warm-up
// sends the fixed-rate load untimed until replicas, lattice reads and
// the collector's pacing have settled; windows of the fixed phase still
// drift for the first seconds after set-up otherwise.
const (
	warmupShare  = 0.1
	fixedShare   = 0.35
	goodputShare = 0.45
)

// goodputStep is the length of one goodput step: the goodput share of
// the run split over the steps.
func goodputStep(seconds time.Duration) time.Duration {
	return time.Duration(float64(seconds) * goodputShare / goodputSteps)
}

func predictQueries(keys []servedKey) []predict.Query {
	qs := make([]predict.Query, len(keys))
	for i, k := range keys {
		qs[i] = k.q.PredictQuery()
	}
	return qs
}

// runWarmHot drives one guarded, traced node over a warmed on-disk
// cache with Poisson arrivals over a zipf(1.2) of warmHotKeys.
func runWarmHot(r *run) error {
	keys, err := parseKeys(warmHotKeys)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	spec := warmHotLoad
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
	spec.pick = func(*rand.Rand) int { return int(zipf.Uint64()) }

	qs := predictQueries(keys)
	s, setup, err := r.setUpRepeated(setupRepeats, func() (*served, error) {
		return r.setUpServed(qs, listPopulation(warmHotKeys), len(keys), nodeOpts{count: 1, spans: r.spans})
	})
	if err != nil {
		return err
	}
	defer s.close()
	return r.serving(s, rng, spec, setup, nil, func() error {
		if err := r.handlerProbe(s, keys); err != nil {
			return err
		}
		if err := r.warmPathProbe(qs, s.nodes[0].cache, true); err != nil {
			return err
		}
		return r.backendProbe("cached", tables.BackendConfig{Cache: s.nodes[0].cache}, qs)
	})
}

// servingPass is what one pass of the serving driver measured.
type servingPass struct {
	lat, late      summary
	goodput        float64
	shed, deadline int64
	heap           float64
}

// servingPass runs one pass of a serving workload: the warm-up, the
// fixed-rate latency windows spread before, between and after the
// goodput steps, then the workload's extra phase (if any).
// With a span log every request is traced; the plan is the same either
// way, so a traced pass differs from an untraced one by tracing alone.
func (r *run) servingPass(s *served, rng *rand.Rand, spec loadSpec, log *spanLog, extra func() error) (servingPass, error) {
	label := "fixed-rate"
	if log != nil {
		label = "traced fixed-rate"
	}
	var m servingPass
	s.warmUp(rng, spec, log)
	fixed := s.fixedPhase(rng, spec, time.Duration(float64(r.seconds)*fixedShare), log)
	fixed.run(fixedWindows / 3)
	// The heap is read after load at the fixed rate only; saturation
	// leaves behind more the faster the system is.
	m.heap = liveHeapMB()
	good, shed, deadline, err := s.goodput(rng, spec, goodputStep(r.seconds), log, func() { fixed.run(1) })
	r.tally.op(err)
	m.goodput, m.shed, m.deadline = good, shed, deadline
	m.lat, m.late = fixed.report(label)
	r.logf("goodput: %.0f/s (median of %d steps; shed %d, deadline exceeded %d)", good, goodputSteps, shed, deadline)
	if extra != nil {
		if err := extra(); err != nil {
			return m, err
		}
	}
	if !m.lat.tailOK {
		return m, fmt.Errorf("fixed-rate phase has %d samples, too few for a tail", m.lat.n)
	}
	r.logf("key reuse: %.3f of %d checked answers were for a key answered earlier in the run", s.repeatFrac(), s.answers.Load())
	return m, nil
}

// serving measures a serving workload. Untraced, one pass gives the
// end-to-end metrics. Traced, an untraced pass and then a traced one run
// the same plan, their difference is tracing's overhead, the traced
// pass's spans give the per-request layer figures, and probes then time
// the layers one call at a time.
func (r *run) serving(s *served, rng *rand.Rand, spec loadSpec, setup float64, extra, probes func() error) error {
	if !r.traced {
		m, err := r.servingPass(s, rng, spec, nil, extra)
		if err != nil {
			return err
		}
		r.set(mP50, us(m.lat.p50), "us")
		r.set(mTail, us(m.lat.tail), "us")
		r.set(mGoodput, m.goodput, "1/s")
		r.set(mHeap, m.heap, "MB")
		r.set(mSetup, setup, "s")
		return nil
	}
	base, err := r.servingPass(s, rng, spec, nil, nil)
	if err != nil {
		return err
	}
	mark := r.spans.len()
	traced, err := r.servingPass(s, rng, spec, r.spans, extra)
	if err != nil {
		return err
	}
	spans := r.spans.snapshot()[mark:]
	r.printLedger("traced pass", spans)
	r.requestStats(spans)
	r.set("gen.lateness_p50_us", us(base.late.p50), "us")
	r.set("gen.lateness_tail_us", us(base.late.tail), "us")
	r.set("gen.key_repeat_frac", s.repeatFrac(), "ratio")
	r.traceOverhead(base.lat, traced.lat)
	r.set("obs.trace_overhead_pct."+mGoodput, overheadPct(base.goodput, traced.goodput), "%")
	r.set("guard.shed", float64(traced.shed), "count")
	r.set("guard.deadline_exceeded", float64(traced.deadline), "count")
	r.diskReads(s.client, s.nodes)
	keys, err := s.pop.sample(parseKeySample)
	if err != nil {
		return err
	}
	r.parseKeyProbe(keys)
	return probes()
}
