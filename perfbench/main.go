// Command perfbench is the repository's versioned benchmark. It runs
// one frozen workload of the Resource Distributor simulator through
// the program's public entry points for a fixed wall-clock time,
// checks that every output is correct and byte-identical from pass to
// pass and at any worker count, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload node-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it reports the per-layer metrics,
// timed around the benchmark's own calls into each layer and read
// from the program's own counters. Nothing inside the program is
// instrumented. Run it from the repository root: it reads
// BENCHMARK.json there and writes nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times set-up runs; setup_s is the median.
// The repeats are spread over the measured passes, so a few seconds of
// host contention cannot cover all of them.
const setupReps = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name from perfbench/workloads.json")
	seed := flag.Uint64("seed", 1, "benchmark seed; the workload's run seeds derive from it")
	seconds := flag.Int("seconds", 10, "wall-clock seconds of measured passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s >= 1> --trace <0|1>")
		return 2
	}
	ws, err := loadWorkloads()
	var decl declared
	if err == nil {
		decl, err = readBenchmarkFile("BENCHMARK.json")
	}
	if err == nil {
		err = decl.checkWorkloads(ws)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := findWorkload(ws, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)

	// Set-up runs once before the measured passes and again between
	// them; setup_s is the median.
	var setups []float64
	res := result{Metrics: map[string]metric{}}
	resetup := func() ([]job, error) {
		t0 := time.Now()
		jobs, warm, err := setup(w, *seed, workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += w.Cells
		res.Failed += fail(warm.failures)
		return jobs, nil
	}
	jobs, err := resetup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	m := measure(w, jobs, workers, time.Duration(*seconds)*time.Second, *trace == 1, func() {
		if _, err := resetup(); err != nil {
			res.Failed += fail([]string{err.Error()})
		}
	})
	res.Attempted += m.attempted
	res.Failed += m.failed
	fmt.Printf("digest workload=%s seed=%d results=%s manifest=%s\n", w.Name, *seed, m.digests.Results, m.digests.Manifest)

	want := decl.endToEnd
	if *trace == 0 {
		nodeS := m.nodeSeconds
		res.Metrics["node_s_per_s"] = metric{median(m.passRate), "node-s/s"}
		res.Metrics["cpu_s_per_node_s"] = metric{median(m.passCPU) / nodeS, "s/node-s"}
		res.Metrics["allocs_per_node_s"] = metric{median(m.passAllocs) / nodeS, "count/node-s"}
		res.Metrics["alloc_mb_per_node_s"] = metric{median(m.passBytes) / 1e6 / nodeS, "MB/node-s"}
		res.Metrics["peak_rss_mb"] = metric{median(m.passPeakMB), "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		want = decl.perLayer
		attempted, failures := layers(w, workers, *seed, m, res.Metrics)
		res.Attempted += attempted
		res.Failed += fail(failures)
	}
	if err := checkMetrics(want, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// fail reports each failure on stderr and returns how many there were.
func fail(failures []string) int {
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	return len(failures)
}

// setup prepares one workload: the guarded expansion, the node-count
// check, and a warm-up run of every cell at the first seed, so each
// code path the workload takes has run once before timing.
func setup(w *workload, seed uint64, workers int) ([]job, pass, error) {
	jobs, err := w.frozen(seed)
	if err != nil {
		return nil, pass{}, err
	}
	if err := w.checkNodes(seed); err != nil {
		return nil, pass{}, err
	}
	var warm []job
	for _, j := range jobs {
		if j.spec.Seed == jobs[0].spec.Seed {
			warm = append(warm, j)
		}
	}
	return jobs, runPass(w, warm, workers, false), nil
}

// measurement is what the measured passes of one invocation found.
type measurement struct {
	digests
	attempted, failed int
	nodeSeconds       float64 // simulated node time per pass

	// Untraced passes: per-pass throughput and per-pass resource use.
	passRate, passCPU, passAllocs, passBytes, passPeakMB []float64

	// Traced runs alternate untraced and traced passes.
	untracedWall, tracedWall []float64
	traced                   []pass
	gc                       gcCPU // over the measured passes
}

// measure runs closed-loop passes over the jobs until the wall-clock
// budget is spent, then one more pass on a single worker. Every pass
// must reproduce the first pass's digests. In a traced run, every
// other pass is traced. Between passes it calls resetup, evenly over
// the budget, until set-up has run setupReps times in all.
func measure(w *workload, jobs []job, workers int, budget time.Duration, traced bool, resetup func()) measurement {
	var m measurement
	for _, j := range jobs {
		m.nodeSeconds += j.nodeSeconds()
	}
	var g gate
	check := func(p pass) {
		m.attempted += len(jobs)
		m.failed += fail(p.failures)
		if err := g.observe(p.digests); err != nil {
			m.failed += fail([]string{err.Error()})
		}
	}
	minPasses := 1
	if traced {
		minPasses = 2
	}
	start := time.Now()
	setupsLeft, setupEvery := setupReps-1, budget/setupReps
	deadline := start.Add(budget)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		if setupsLeft > 0 && time.Since(start) >= time.Duration(setupReps-setupsLeft)*setupEvery {
			resetup()
			setupsLeft--
		}
		tracePass := traced && i%2 == 1
		cpu0 := cpuSeconds()
		objs0, bytes0 := readAllocs()
		gc0 := readGC()
		mem := startMemPeak()
		p := runPass(w, jobs, workers, tracePass)
		peak := mem.end()
		m.gc.addSince(gc0)
		cpu1 := cpuSeconds()
		objs1, bytes1 := readAllocs()
		check(p)
		switch {
		case tracePass:
			m.tracedWall = append(m.tracedWall, p.wall.Seconds())
			m.traced = append(m.traced, p)
		case traced:
			m.untracedWall = append(m.untracedWall, p.wall.Seconds())
		default:
			m.passRate = append(m.passRate, m.nodeSeconds/p.wall.Seconds())
			m.passCPU = append(m.passCPU, cpu1-cpu0)
			m.passAllocs = append(m.passAllocs, float64(objs1-objs0))
			m.passBytes = append(m.passBytes, float64(bytes1-bytes0))
			m.passPeakMB = append(m.passPeakMB, peak)
		}
	}
	for ; setupsLeft > 0; setupsLeft-- {
		resetup()
	}
	if workers > 1 {
		check(runPass(w, jobs, 1, false))
	}
	if g.want != nil {
		m.digests = *g.want
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// memPeak tracks, while it runs, the peak of the memory the Go runtime
// holds from the OS: everything it has mapped minus what it has
// released. For this pure-Go program that is its resident set, less
// the binary's own text and data.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

// memSampleEvery is the sampling interval; the heap grows in steps of
// at least a span, far slower than this.
const memSampleEvery = time.Millisecond

func startMemPeak() *memPeak {
	p := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	sample := func() {
		metrics.Read(s)
		p.peak = max(p.peak, s[0].Value.Uint64()-s[1].Value.Uint64())
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-p.stop:
				sample()
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak in MB.
func (p *memPeak) end() float64 {
	close(p.stop)
	<-p.done
	return float64(p.peak) / 1e6
}

// readAllocs returns the cumulative heap allocations: objects, bytes.
func readAllocs() (uint64, uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// gcCPU is the runtime's CPU accounting: CPU time spent in the GC and
// CPU time used in all, idle processors not counted.
type gcCPU struct{ gc, used float64 }

func readGC() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

// addSince adds the accounting between the earlier reading from and now.
func (g *gcCPU) addSince(from gcCPU) {
	now := readGC()
	g.gc += now.gc - from.gc
	g.used += now.used - from.used
}

// share is the GC's share of the CPU time used.
func (g gcCPU) share() float64 {
	if g.used <= 0 {
		return 0
	}
	return g.gc / g.used
}
