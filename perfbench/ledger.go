package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records benchmark-side spans around every call into a
// layer: name, start, end, the span that caused it, and the request it
// belongs to. Spans stay in memory until the run ends and are then
// written out as one JSON file. A nil *spanLog records nothing, so the
// untraced run shares the same call sites at a nil check's cost.

// span is one finished layer call. Times are nanoseconds since the log
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanLog struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// openSpan is a started span; finish records it.
type openSpan struct {
	log    *spanLog
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span. On a nil log it returns an inert span whose id is
// zero, so children of an untraced call have no parent.
func (l *spanLog) start(name string, parent, req int64) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{log: l, id: l.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// newReq mints a request ID (zero on a nil log).
func (l *spanLog) newReq() int64 {
	if l == nil {
		return 0
	}
	return l.reqs.Add(1)
}

// finish records the span.
func (o openSpan) finish() {
	if o.log == nil {
		return
	}
	end := time.Now()
	l := o.log
	l.mu.Lock()
	l.spans = append(l.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: o.start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// snapshot returns a copy of the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerStat is one span name's row in the ledger.
type layerStat struct {
	name      string
	n         int
	medianDur time.Duration
	medianOwn time.Duration
	totalOwn  time.Duration
}

// ledger aggregates spans by name: call count, median duration, median
// and total self time. Rows are ordered by total self time, largest
// first — the layer an optimisation should look at first.
func ledger(spans []span) []layerStat {
	self := selfTimes(spans)
	durs := map[string][]time.Duration{}
	owns := map[string][]time.Duration{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		owns[s.Name] = append(owns[s.Name], self[s.ID])
	}
	rows := make([]layerStat, 0, len(durs))
	for name, ds := range durs {
		row := layerStat{name: name, n: len(ds)}
		row.medianDur = quantile(sortedCopy(ds), 0.5)
		row.medianOwn = quantile(sortedCopy(owns[name]), 0.5)
		for _, o := range owns[name] {
			row.totalOwn += o
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].totalOwn != rows[j].totalOwn {
			return rows[i].totalOwn > rows[j].totalOwn
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// printLedger reports the ledger rows of one traced phase.
func (r *run) printLedger(title string, spans []span) {
	r.logf("ledger %s: %d spans", title, len(spans))
	r.logf("  %-22s %8s %12s %12s %12s", "span", "calls", "median", "median self", "total self")
	for _, row := range ledger(spans) {
		r.logf("  %-22s %8d %12v %12v %12v", row.name, row.n, row.medianDur, row.medianOwn, row.totalOwn.Round(time.Microsecond))
	}
}

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a
// layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_us", "us"},
	{"http.transport_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.parse_key_ns", "ns"},
	{"guard.overhead_us", "us"},
	{"guard.shed", "count"},
	{"guard.deadline_exceeded", "count"},
	{"harness.from_cache_us", "us"},
	{"plan.key_us", "us"},
	{"plan.jobs_per_query", "count"},
	{"plan.cache_get_ns", "ns"},
	{"plan.disk_reads", "count"},
	{"harness.analyze_us", "us"},
	{"ledger.sum_gap_pct", "%"},
	{"predict.cached_us", "us"},
	{"predict.interpolated_us", "us"},
	{"predict.analytic_us", "us"},
	{"cluster.owner_ns", "ns"},
	{"cluster.fill_us", "us"},
	{"cluster.proxied_frac", "ratio"},
	{"cluster.replica_hit_frac", "ratio"},
	{"singleflight.shared_frac", "ratio"},
	{"serve.cold_fill_ms", "ms"},
	{"gen.lateness_p50_us", "us"},
	{"gen.lateness_tail_us", "us"},
	{"gen.key_repeat_frac", "ratio"},
	{"npb.world_ms", "ms"},
	{"npb.timed_frac", "ratio"},
	{"npb.worlds", "count"},
	{"mpi.spawn_us", "us"},
	{"harness.campaign_s", "s"},
	{"harness.campaign_parallel_s", "s"},
	{"plan.parallel_speedup", "ratio"},
	{"harness.timing_inflation", "ratio"},
	{"core.cpl_err_pct", "%"},
	{"core.sum_err_pct", "%"},
	{"obs.trace_overhead_pct." + mP50, "%"},
	{"obs.trace_overhead_pct." + mTail, "%"},
	{"obs.trace_overhead_pct." + mGoodput, "%"},
}

// fillPerLayer gives every per-layer metric the workload did not
// measure a zero, and drops anything else, so a traced run reports
// exactly the declared set.
func (r *run) fillPerLayer() {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := r.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			panic(fmt.Sprintf("perfbench: metric %s reported in %s, declared in %s", m.name, v.Unit, m.unit))
		}
		out[m.name] = v
	}
	r.metrics = out
}

// traceOverhead reports tracing's cost on the latency metrics: the
// traced median and tail against the untraced ones. Both phases send
// the same load, so their tails are taken at the same percentile.
func (r *run) traceOverhead(base, traced summary) {
	r.set("obs.trace_overhead_pct."+mP50, overheadPct(us(base.p50), us(traced.p50)), "%")
	if base.tailQ == traced.tailQ {
		r.set("obs.trace_overhead_pct."+mTail, overheadPct(us(base.tail), us(traced.tail)), "%")
	}
}

// overheadPct is the traced-minus-untraced change as a percentage of
// the untraced value.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}
