package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is open-loop: arrivals follow a Poisson schedule
// derived only from the seed, and a request is sent when it falls due
// whether or not earlier ones have answered. At most `conns` requests
// are in flight; a request that finds every connection busy waits in
// the generator's backlog, and its latency is timed from when it was
// due, so a stall is charged to every request queued behind it.

// arrival is one scheduled request: when it falls due (offset from the
// phase start), which query of the workload's population it sends, and
// which node it goes to.
type arrival struct {
	due   time.Duration
	query int
	node  int
}

// poissonSchedule draws arrivals at the given rate for duration d:
// exponential gaps, a query index from pick, and round-robin nodes.
// Everything comes from rng, so one seed gives one schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, nodes int, pick func(*rand.Rand) int) []arrival {
	arr := make([]arrival, 0, int(rate*d.Seconds())+16)
	var t float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return arr
		}
		arr = append(arr, arrival{due: due, query: pick(rng), node: i % nodes})
	}
}

// timing is one request's position relative to its due time. lateness
// is how long after falling due the generator sent it. latency runs from
// the due time to the answer, so time spent waiting for a free
// connection counts; but when the generator sat idle until the request
// fell due (slept), its wake-up overshoot is the generator's own delay,
// not the system's, and latency runs from the send instead.
func timing(due, sent, done time.Time, slept bool) (lateness, latency time.Duration) {
	if slept {
		return sent.Sub(due), done.Sub(sent)
	}
	return sent.Sub(due), done.Sub(due)
}

// phase is the outcome of sending one schedule.
type phase struct {
	sent   int
	failed int
	// elapsed runs from the start until the last answer arrived.
	elapsed time.Duration
	// latency and lateness hold one entry per sent request.
	latency  []time.Duration
	lateness []time.Duration
}

// runOpenLoop sends arr with at most conns requests in flight. do sends
// one request and reports whether it failed. A non-zero stopAfter stops
// claiming arrivals that long after the start: a saturation step offers
// far more than the system can take and counts only what it completes
// in that time.
func runOpenLoop(arr []arrival, conns int, stopAfter time.Duration, do func(a arrival) error) *phase {
	p := &phase{
		latency:  make([]time.Duration, len(arr)),
		lateness: make([]time.Duration, len(arr)),
	}
	var (
		next   atomic.Int64
		sent   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopAfter > 0 && time.Since(start) >= stopAfter {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				due := start.Add(arr[i].due)
				wait := time.Until(due)
				if wait > 0 {
					sleep(wait)
				}
				sent.Add(1)
				at := time.Now()
				err := do(arr[i])
				p.lateness[i], p.latency[i] = timing(due, at, time.Now(), wait > 0)
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	// Every claimed index is sent, so after a stop the sent requests are
	// exactly the prefix [0, sent).
	p.sent = int(sent.Load())
	p.failed = int(failed.Load())
	p.latency = p.latency[:p.sent]
	p.lateness = p.lateness[:p.sent]
	return p
}

// windowed summarizes samples window by window and returns, over the
// windows, the q-quantile of each window's median and of each window's
// tail (the tail taken at the highest percentile every window supports).
// On a shared host, interference from neighbours comes and goes in
// spells of a second or more and only ever adds time; a fast window is
// what the program itself costs, and it moves with the program's own
// speed but not with a neighbour's burst.
func windowed(ws [][]time.Duration, q float64) summary {
	out := summary{tailQ: 1, tailOK: true}
	for _, w := range ws {
		out.n += len(w)
		q, ok := tailQuantile(tailWant, len(w))
		out.tailOK = out.tailOK && ok
		out.tailQ = min(out.tailQ, q)
	}
	if !out.tailOK || len(ws) == 0 {
		return summary{n: out.n}
	}
	p50s := make([]time.Duration, len(ws))
	tails := make([]time.Duration, len(ws))
	for i, w := range ws {
		s := sortedCopy(w)
		p50s[i], tails[i] = quantile(s, 0.5), quantile(s, out.tailQ)
	}
	out.p50 = quantile(sortedCopy(p50s), q)
	out.tail = quantile(sortedCopy(tails), q)
	return out
}

// metricWindowQ is the window quantile the latency metrics take: the
// second-fastest of the fixed-rate windows spread over the run.
const metricWindowQ = 0.1

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailWant is the percentile the tail is reported at. On a shared
// 2-vCPU host the 99th percentile is set by host stalls of 5-15ms even
// at light load and swings several-fold between runs; the 90th is the
// highest that stays put from run to run.
const tailWant = 0.9

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantile returns the highest candidate percentile not above want
// that leaves at least minBeyond of n samples beyond it. ok is false
// when not even the median does.
func tailQuantile(want float64, n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		if c <= want && n-rank(c, n) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// summary is a latency sample's median and reported tail, with the
// sample count and the percentile the tail is taken at.
type summary struct {
	n      int
	p50    time.Duration
	tailQ  float64
	tail   time.Duration
	tailOK bool
}

// sleep blocks the calling thread in nanosleep for d. time.Sleep wakes
// through the runtime's network poller, whose timeout is rounded to
// whole milliseconds on Linux, so sub-millisecond waits overshoot by
// half a millisecond on average; nanosleep wakes within tens of
// microseconds, and the runtime hands the thread's processor to other
// goroutines while it sleeps.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
