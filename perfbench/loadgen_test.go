package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		want float64
		n    int
		q    float64
		ok   bool
	}{
		{0.99, 1000, 0.99, true},    // rank 990: exactly 10 beyond
		{0.99, 999, 0.95, true},     // rank 990 of 999: 9 beyond
		{0.99, 10000, 0.99, true},   // capped at the asked-for percentile
		{0.999, 10000, 0.999, true}, // rank 9990: 10 beyond
		{0.99, 420, 0.95, true},
		{0.99, 100, 0.9, true},
		{0.99, 99, 0.5, true},
		{0.99, 20, 0.5, true},
		{0.99, 19, 0, false}, // rank 10 of 19: 9 beyond
		{0.99, 0, 0, false},
	} {
		q, ok := tailQuantile(tc.want, tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailQuantile(%v, %d) = %v, %v; want %v, %v", tc.want, tc.n, q, ok, tc.q, tc.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
}

func TestWindowedFastQuartile(t *testing.T) {
	// Four windows of 100 samples; window 2 is one long stall. The
	// figures of the faster quartile of windows ignore it.
	ws := make([][]time.Duration, 4)
	for w := range ws {
		for i := 0; i < 100; i++ {
			x := time.Duration(i + 1)
			if w == 2 {
				x *= 1000
			}
			ws[w] = append(ws[w], x)
		}
	}
	s := windowed(ws, 0.25)
	if s.n != 400 || !s.tailOK || s.tailQ != 0.9 || s.p50 != 50 || s.tail != 90 {
		t.Errorf("windowed = %+v, want n 400, p50 50, p90 90", s)
	}
	// Windows too small for a tail leave the summary without one.
	small := [][]time.Duration{ws[0][:10], ws[1][:10], ws[2][:10], ws[3][:10]}
	if s := windowed(small, 0.25); s.tailOK {
		t.Errorf("windowed tail from %d samples: %+v", 40, s)
	}
}

func TestTimingFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(300 * time.Microsecond)
	done := sent.Add(2 * time.Millisecond)
	// Waiting for a free connection is charged: latency runs from due.
	late, lat := timing(due, sent, done, false)
	if late != 300*time.Microsecond || lat != 2300*time.Microsecond {
		t.Errorf("queued: timing = %v, %v; want 300µs late and 2.3ms latency from due", late, lat)
	}
	// Oversleeping while idle is the generator's: reported as lateness,
	// latency runs from the send.
	late, lat = timing(due, sent, done, true)
	if late != 300*time.Microsecond || lat != 2*time.Millisecond {
		t.Errorf("slept: timing = %v, %v; want 300µs late and 2ms latency from send", late, lat)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	pick := func(g *rand.Rand) int { return g.Intn(7) }
	a := poissonSchedule(rand.New(rand.NewSource(3)), 2000, time.Second, 3, pick)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 2000, time.Second, 3, pick)
	c := poissonSchedule(rand.New(rand.NewSource(4)), 2000, time.Second, 3, pick)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 1s at 2000/s", n)
	}
	for i, x := range a {
		if x.due >= time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due %v out of order or past the end", i, x.due)
		}
		if x.node != i%3 {
			t.Fatalf("arrival %d on node %d, want round-robin %d", i, x.node, i%3)
		}
	}
}

func TestRunOpenLoopTimesFromDue(t *testing.T) {
	// One connection and a 20ms request: the second request, due 1ms
	// after the first, waits for it and is charged that wait.
	arr := []arrival{{due: 0}, {due: time.Millisecond}}
	p := runOpenLoop(arr, 1, 0, func(arrival) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if p.sent != 2 || p.failed != 0 {
		t.Fatalf("sent %d failed %d", p.sent, p.failed)
	}
	if p.lateness[1] < 15*time.Millisecond {
		t.Errorf("second request %v late, want about 19ms", p.lateness[1])
	}
	if p.latency[1] < p.lateness[1]+20*time.Millisecond {
		t.Errorf("second request latency %v does not include its %v lateness", p.latency[1], p.lateness[1])
	}
}

func TestRunOpenLoopStopsAfter(t *testing.T) {
	// A hundred 10ms requests all due at once on one connection, cut
	// after 35ms: the sent requests are a prefix of the schedule, and no
	// request is claimed after the cut.
	arr := make([]arrival, 100)
	p := runOpenLoop(arr, 1, 35*time.Millisecond, func(arrival) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if p.sent < 1 || p.sent > 5 {
		t.Fatalf("sent %d, want a cut after about 4 requests", p.sent)
	}
	if len(p.latency) != p.sent || len(p.lateness) != p.sent {
		t.Fatalf("%d latencies and %d latenesses for %d sent", len(p.latency), len(p.lateness), p.sent)
	}
	if p.elapsed < 35*time.Millisecond {
		t.Errorf("elapsed %v, want at least the 35ms before the cut", p.elapsed)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}
