// Command perfbench is the repository's benchmark: one process, seeded
// from the command line, that drives one workload end to end and prints
// its metrics as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload warm-hot --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md in this directory for rates, limits and the
// layer map):
//
//	warm-hot       one guarded, traced node over a warmed on-disk cache
//	fleet-wide     three peer-filling nodes over one shared cache
//	campaign-cold  a cold BT+SP+LU coupling campaign through the engine
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the same workload with benchmark-side spans around each layer
// call and reports the per-layer metrics instead. Every operation the
// benchmark attempts is counted, and every failed correctness check
// counts as a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(err)
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// run carries one benchmark invocation's settings and sinks.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workdir string
	conns   int
	tally   tally
	metrics map[string]metric
	spans   *spanLog
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// logf prints one human-readable report line. The JSON result is always
// the last line, so these never interfere with it.
func (r *run) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// scratchDir makes a fresh directory for one set-up's cache under the
// run's private work directory.
func (r *run) scratchDir(name string) (string, error) {
	return os.MkdirTemp(r.workdir, name+"-")
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"warm-hot":      runWarmHot,
	"fleet-wide":    runFleetWide,
	"campaign-cold": runCampaignCold,
}

// End-to-end metric names, reported by every workload with --trace 0.
const (
	mP50     = "p50_us"
	mTail    = "tail_us"
	mGoodput = "goodput_per_s"
	mHeap    = "heap_mb"
	mSetup   = "setup_s"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: warm-hot, fleet-wide or campaign-cold")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 20, "measured time of one run, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		workdir  = flag.String("workdir", ".bench_build", "directory for caches and the span dump (inside the checkout)")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: dir,
		conns:   runtime.NumCPU(),
		metrics: map[string]metric{},
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	r.logf("perfbench: workload %s seed %d seconds %d trace %d conns %d", *workload, r.seed, *seconds, *trace, r.conns)
	err = drive(r)
	os.RemoveAll(dir)
	if err == nil && r.traced {
		r.fillPerLayer()
	} else if err == nil {
		err = r.checkEndToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.json", *workload, r.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.logf("spans: %d written to %s", r.spans.len(), path)
	}
	for _, e := range r.tally.errs {
		r.logf("FAILED: %s", e)
	}
	res := result{
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   r.metrics,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd lists the end-to-end metrics with their units; every
// untraced run reports exactly these.
var endToEnd = []struct{ name, unit string }{
	{mP50, "us"}, {mTail, "us"}, {mGoodput, "1/s"}, {mHeap, "MB"}, {mSetup, "s"},
}

func (r *run) checkEndToEnd() error {
	if len(r.metrics) != len(endToEnd) {
		return fmt.Errorf("reported %d end-to-end metrics, want %d", len(r.metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v, ok := r.metrics[m.name]; !ok || v.Unit != m.unit {
			return fmt.Errorf("end-to-end metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// liveHeapMB returns the live heap in MiB after two forced collections:
// the second empties the sync.Pool victim caches the first leaves, which
// would otherwise count whatever the pools happened to hold.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianFloat returns the median of xs (mean of the middle pair for an
// even count); 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is medianFloat over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return medianFloat(xs)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
