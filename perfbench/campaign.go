package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/plan"
	"repro/internal/tables"
)

// The cold campaign: one BT, SP and LU coupling study each, every chain
// length from 2 up to the full loop ring, measured through the engine
// into a fresh cache. Grid 24 makes compute dominate each world.
const (
	campaignGrid   = 24
	campaignTrips  = 2
	campaignProcs  = 4
	campaignBlocks = 3
)

// ringLen is each benchmark's loop ring length: the longest chain.
var ringLen = map[string]int{"BT": 5, "SP": 6, "LU": 4}

// Verification set-up: each benchmark run once at the campaign's grid,
// its norms compared with the values recorded when the benchmark was
// written.
const (
	normTrips = 4
	normTol   = 1e-9
)

var referenceNorms = map[string][5]float64{
	"BT": {1.0116353866821475, 1.088383074519882, 1.0931493866275341, 1.1241751148644203, 1.1416916426626056},
	"SP": {1.1149303365968692, 1.244588863144976, 1.37470415574142, 1.4812965737673187, 1.5907231420277281},
	"LU": {1.0322178387624117, 1.0432208108737433, 1.1157153282967285, 1.1127654659515884, 1.1229377939302536},
}

// world is one measurement call as the engine saw it: wall time of the
// call and the part of it inside timed blocks.
type world struct {
	call  time.Duration
	timed time.Duration
}

// timedWorkload wraps an NPB workload to time every world the engine
// spawns through it, from outside: the call's wall time, and the timed
// blocks the measurement reports. With a span log each world is also a
// span under the study's.
type timedWorkload struct {
	*harness.NPBWorkload
	log    *spanLog
	parent int64
	mu     sync.Mutex
	worlds []world
}

func (w *timedWorkload) record(sp openSpan, t0 time.Time, timed time.Duration) {
	call := time.Since(t0)
	sp.finish()
	w.mu.Lock()
	w.worlds = append(w.worlds, world{call: call, timed: timed})
	w.mu.Unlock()
}

func (w *timedWorkload) MeasureWindowDetail(window []string, o harness.Options) (npb.WindowMeasurement, error) {
	sp := w.log.start("npb.world", w.parent, 0)
	t0 := time.Now()
	wm, err := w.NPBWorkload.MeasureWindowDetail(window, o)
	var timed float64
	for _, b := range wm.Blocks {
		timed += b * float64(wm.Passes)
	}
	w.record(sp, t0, time.Duration(timed*float64(time.Second)))
	return wm, err
}

func (w *timedWorkload) MeasureWindow(window []string, o harness.Options) (float64, error) {
	wm, err := w.MeasureWindowDetail(window, o)
	return wm.PerPass, err
}

func (w *timedWorkload) MeasureActual(trips int, o harness.Options) (float64, error) {
	sp := w.log.start("npb.world", w.parent, 0)
	t0 := time.Now()
	v, err := w.NPBWorkload.MeasureActual(trips, o)
	w.record(sp, t0, time.Duration(v*float64(time.Second)))
	return v, err
}

// campaign is one finished campaign: its studies in run order, its
// worlds, and its wall time.
type campaign struct {
	parallel int
	wall     time.Duration
	studies  []*harness.Study
	worlds   []world
}

// runCampaign measures one study per benchmark, in order, each into a
// fresh cache at the given executor width. Each study is an operation;
// it fails unless every planned job ran a world exactly once, no job
// came from a cache, and the study's health is clean.
func (r *run) runCampaign(order []string, parallel int, log *spanLog) (*campaign, error) {
	c := &campaign{parallel: parallel}
	csp := log.start(fmt.Sprintf("campaign.p%d", parallel), 0, log.newReq())
	t0 := time.Now()
	for _, b := range order {
		prob, err := tables.BenchProblem(b, "S")
		if err != nil {
			return nil, err
		}
		prob = tables.GridProblem(b, prob, campaignGrid)
		nw, err := tables.NewWorkload(b, "S", prob, campaignProcs, nil)
		if err != nil {
			return nil, err
		}
		ssp := log.start("harness.study", csp.id, csp.req)
		w := &timedWorkload{NPBWorkload: nw, log: log, parent: ssp.id}
		chains := make([]int, 0, ringLen[b]-1)
		for L := 2; L <= ringLen[b]; L++ {
			chains = append(chains, L)
		}
		eng := harness.Engine{Workload: w, Opts: harness.Options{
			Blocks: campaignBlocks, Passes: 1, ActualRuns: 3,
			Parallel:    parallel,
			Cache:       plan.NewCache(),
			WorldDigest: tables.WorldDigest(prob, nil),
		}}
		st, err := eng.Run(campaignTrips, chains)
		ssp.finish()
		r.tally.op(err)
		if err != nil {
			continue
		}
		if err := checkStudy(st, len(w.worlds)); err != nil {
			r.tally.fail(err)
		}
		if log != nil {
			// Only the traced ledger reads studies back; the untraced run
			// keeps its own memory flat so heap_mb is the program's.
			c.studies = append(c.studies, st)
		}
		c.worlds = append(c.worlds, w.worlds...)
	}
	c.wall = time.Since(t0)
	csp.finish()
	return c, nil
}

// checkStudy verifies a cold study: every planned job executed exactly
// once as one world, nothing came from a cache, and health is clean.
func checkStudy(st *harness.Study, worlds int) error {
	ex := st.Exec
	switch {
	case ex.Executed != ex.Planned:
		return fmt.Errorf("study %s executed %d of %d planned jobs", st.Workload, ex.Executed, ex.Planned)
	case ex.CacheHits != 0:
		return fmt.Errorf("cold study %s had %d cache hits", st.Workload, ex.CacheHits)
	case !st.Health.Clean():
		return fmt.Errorf("study %s health is not clean: %+v", st.Workload, st.Health)
	case worlds != ex.Executed:
		return fmt.Errorf("study %s spawned %d worlds for %d executed jobs", st.Workload, worlds, ex.Executed)
	}
	return nil
}

// verifyNorms runs each benchmark once and compares its verification
// norms with the recorded reference values.
func (r *run) verifyNorms() error {
	for _, b := range benches {
		prob, err := tables.BenchProblem(b, "S")
		if err != nil {
			return err
		}
		w, err := tables.NewWorkload(b, "S", tables.GridProblem(b, prob, campaignGrid), campaignProcs, nil)
		if err != nil {
			return err
		}
		var norms [5]float64
		err = npb.RunOnce(w.Factory, w.Pre, w.Loop, normTrips, w.Post, campaignProcs, func(ks npb.KernelSet) {
			if nr, ok := ks.(interface{ Norms() [5]float64 }); ok {
				norms = nr.Norms()
			}
		})
		if err == nil {
			for i, want := range referenceNorms[b] {
				if math.Abs(norms[i]-want) > normTol*math.Abs(want) {
					err = fmt.Errorf("%s norm %d = %v, reference %v (relative tolerance %g)", b, i, norms[i], want, normTol)
					break
				}
			}
		}
		r.tally.op(err)
	}
	return nil
}

// runCampaignCold alternates serial and parallel cold campaigns for the
// run's duration. Set-up is the norm verification, repeated.
func runCampaignCold(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	order := make([]string, len(benches))
	for i, j := range rng.Perm(len(benches)) {
		order[i] = benches[j]
	}
	setups := make([]time.Duration, setupRepeats)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := r.verifyNorms(); err != nil {
			return err
		}
		setups[i] = time.Since(t0)
	}
	r.logf("setup: norm verification x%d, median %.3fs (%v); study order %v", setupRepeats, medianDur(setups), setups, order)

	// A traced run interleaves an untraced serial campaign with each
	// traced pair; the untraced ones are what tracing is compared with.
	mark := 0
	if r.traced {
		mark = r.spans.len()
	}
	var serial, parallel, untraced []*campaign
	start := time.Now()
	for len(serial) < 2 || time.Since(start) < r.seconds {
		if r.traced {
			c, err := r.runCampaign(order, 1, nil)
			if err != nil {
				return err
			}
			untraced = append(untraced, c)
		}
		for _, p := range []int{1, r.conns} {
			c, err := r.runCampaign(order, p, r.spans)
			if err != nil {
				return err
			}
			r.logf("campaign parallel=%d: %v, %d worlds", p, c.wall.Round(time.Millisecond), len(c.worlds))
			if p == 1 {
				serial = append(serial, c)
			} else {
				parallel = append(parallel, c)
			}
		}
	}
	heap := liveHeapMB()

	lat := windowed(campaignWindows(serial), metricWindowQ)
	serialWall, parallelWall := walls(serial), walls(parallel)
	// Throughput takes the faster quartile of the parallel campaigns,
	// for the same reason windowed takes a fast window.
	var jobsPerSec []float64
	for _, c := range parallel {
		jobsPerSec = append(jobsPerSec, float64(len(c.worlds))/c.wall.Seconds())
	}
	sort.Float64s(jobsPerSec)
	throughput := jobsPerSec[rank(0.75, len(jobsPerSec))-1]
	r.logf("serial campaigns: %d, median wall %.3fs; parallel campaigns: %d, median wall %.3fs",
		len(serial), serialWall, len(parallel), parallelWall)
	r.logf("worlds (serial): n=%d p50 %v p%g %v", lat.n, lat.p50, lat.tailQ*100, lat.tail)

	if !r.traced {
		if !lat.tailOK {
			return fmt.Errorf("%d worlds, too few for a tail", lat.n)
		}
		r.set(mP50, us(lat.p50), "us")
		r.set(mTail, us(lat.tail), "us")
		r.set(mGoodput, throughput, "1/s")
		r.set(mHeap, heap, "MB")
		r.set(mSetup, medianDur(setups), "s")
		return nil
	}

	r.printLedger("cold campaigns", r.spans.snapshot()[mark:])
	var calls, timed time.Duration
	for _, w := range serial[0].worlds {
		calls += w.call
		timed += w.timed
	}
	r.set("npb.world_ms", us(lat.p50)/1e3, "ms")
	r.set("npb.timed_frac", timed.Seconds()/calls.Seconds(), "ratio")
	r.set("npb.worlds", float64(len(serial[0].worlds)), "count")
	r.set("harness.campaign_s", serialWall, "s")
	r.set("harness.campaign_parallel_s", parallelWall, "s")
	r.set("plan.parallel_speedup", serialWall/parallelWall, "ratio")
	var inflation []float64
	for i := range parallel {
		inflation = append(inflation, timingInflation(serial[i], parallel[i]))
	}
	r.set("harness.timing_inflation", medianFloat(inflation), "ratio")
	var cpl, sum []float64
	for _, c := range serial {
		for _, st := range c.studies {
			lens := st.ChainLens()
			cpl = append(cpl, st.Couplings[lens[len(lens)-1]].RelErr*100)
			sum = append(sum, st.Summation.RelErr*100)
		}
	}
	r.set("core.cpl_err_pct", medianFloat(cpl), "%")
	r.set("core.sum_err_pct", medianFloat(sum), "%")
	r.traceOverhead(windowed(campaignWindows(untraced), metricWindowQ), lat)
	spawn, err := spawnProbe()
	r.tally.op(err)
	r.set("mpi.spawn_us", us(spawn), "us")
	return nil
}

// campaignWindows groups the campaigns' world call times into windows
// of two consecutive campaigns (an odd one out joins the last window),
// enough worlds per window for a tail.
func campaignWindows(cs []*campaign) [][]time.Duration {
	ws := make([][]time.Duration, max(len(cs)/2, 1))
	for i, c := range cs {
		w := min(i/2, len(ws)-1)
		for _, x := range c.worlds {
			ws[w] = append(ws[w], x.call)
		}
	}
	return ws
}

// walls is the median wall time of the campaigns, in seconds.
func walls(cs []*campaign) float64 {
	ds := make([]time.Duration, len(cs))
	for i, c := range cs {
		ds[i] = c.wall
	}
	return medianDur(ds)
}

// timingInflation is Σ job seconds of the parallel campaign over Σ job
// seconds of the serial one, matched by study, kind and job label: how
// much running jobs side by side inflated what each one measured.
func timingInflation(serial, parallel *campaign) float64 {
	seconds := func(c *campaign) map[string]float64 {
		m := map[string]float64{}
		for _, st := range c.studies {
			for _, rec := range st.Provenance {
				m[st.Workload+"|"+rec.Kind+"|"+rec.Key] = rec.Seconds
			}
		}
		return m
	}
	s, p := seconds(serial), seconds(parallel)
	var sumS, sumP float64
	for k, v := range s {
		if pv, ok := p[k]; ok {
			sumS += v
			sumP += pv
		}
	}
	if sumS == 0 {
		return 0
	}
	return sumP / sumS
}

// spawnProbe times mpi.Run of an empty world (one barrier) at the
// campaign's rank count.
func spawnProbe() (time.Duration, error) {
	var err error
	d := perCall(1, func() {
		if e := mpi.Run(campaignProcs, func(c *mpi.Comm) { c.Barrier() }); e != nil {
			err = e
		}
	})
	return d, err
}
