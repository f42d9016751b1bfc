package sweep

// The baseline scenario family: the §3.4/§3.5 comparator experiments
// as sweep cells. Each member runs the same offered load either under
// the Resource Distributor (PolicyInvent — the reference column) or
// under one of the proportional-share comparators from
// internal/baseline (the baseline-* policies), on a bare kernel with
// the same seed and switch-cost model. The streamer member swaps the
// CPU comparison for a bandwidth one: three DMA producers over
// capacity under metered, max-min fair and maximum-throughput
// allocation.
//
// The whole family can be requested at once: the matrix scenario name
// "baseline" expands to every baseline-* scenario.

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/streamer"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/workload"
)

// BaselineFamily is the matrix scenario name that expands to every
// baseline-* scenario.
const BaselineFamily = "baseline"

// streamBaseline is the SplitSeed substream for baseline-family
// workload parameter jitter (periods, demands, admission stagger) —
// distinct from streamStress/streamGraphics and from
// baseline.StreamLottery, per the fleet-wide rngstream namespace.
const streamBaseline = 5

// Comparator policy axis: which scheduler/allocator serves the
// scenario's load instead of the RD.
const (
	PolicyBaselineFairShare = "baseline-fairshare"
	PolicyBaselineLottery   = "baseline-lottery"
	PolicyBaselineStride    = "baseline-stride"
	PolicyBaselineCFS       = "baseline-cfs"
	// Streamer allocation policies (baseline-streamer scenario).
	PolicyStreamerMaxMin  = "streamer-maxmin"
	PolicyStreamerMaxThru = "streamer-maxthru"
)

// comparator is the interface the proportional-share schedulers share
// (FairShare, Lottery, Stride, CFS all satisfy it).
type comparator interface {
	Add(name string, period ticks.Ticks, weight int64, body task.Body)
	RunUntil(limit ticks.Ticks)
	Stats(name string) (baseline.Stats, bool)
	Instrument(t *telemetry.Set)
}

// newComparator builds a comparator on a bare kernel, with a 1 ms
// quantum; seed feeds the lottery's draws.
type newComparator func(k *sim.Kernel, seed uint64) comparator

// comparators is the comparator axis table. Invent has no
// constructor: it is the RD reference run.
var comparators = []option[newComparator]{
	{PolicyInvent, nil},
	{PolicyBaselineFairShare, func(k *sim.Kernel, _ uint64) comparator { return baseline.NewFairShare(k, ms) }},
	{PolicyBaselineLottery, func(k *sim.Kernel, seed uint64) comparator { return baseline.NewLottery(k, ms, seed) }},
	{PolicyBaselineStride, func(k *sim.Kernel, _ uint64) comparator { return baseline.NewStride(k, ms) }},
	{PolicyBaselineCFS, func(k *sim.Kernel, _ uint64) comparator { return baseline.NewCFS(k, ms) }},
}

// allocators is the baseline-streamer allocator axis table: invent is
// the RD's metered FCFS reservations.
var allocators = []option[streamer.Allocator]{
	{PolicyInvent, streamer.Metered{}},
	{PolicyStreamerMaxMin, streamer.MaxMinFair{}},
	{PolicyStreamerMaxThru, streamer.MaxThroughput{}},
}

// comparatorTally folds baseline Stats into the run metrics: the
// comparators have no probe/observer chain, so Misses comes from the
// schedulers' own period accounting.
func comparatorTally(m *RunMetrics, c comparator, names []string) {
	for _, n := range names {
		if st, ok := c.Stats(n); ok {
			m.Misses += st.MissedPeriods
			m.CompletedPeriods += st.Completed
		}
	}
}

// runBaselineMedia is the §3.5 experiment as a sweep cell: an MPEG
// decoder (needs ~33%) against three 30% workers — 120% offered load.
// Under the RD (invent) the workers present honest shed menus and the
// decoder keeps every I frame; under a comparator everyone gets a
// fair fraction and frames die by accident of timing.
func runBaselineMedia(e *env, mk newComparator) error {
	if mk == nil {
		d := e.start(core.Config{})
		mix, err := workload.MPEGMix(e)
		if err != nil {
			return err
		}
		d.Run(e.spec.Horizon)
		mix.MPEG.Flush()
		e.quality = func(m *RunMetrics) { mpegQuality(m, mix.MPEG) }
		return nil
	}

	k := e.startKernel()
	c := mk(k, e.spec.Seed)
	c.Instrument(e.tel)
	mix := workload.MPEGMixOn(c)
	c.RunUntil(e.spec.Horizon)
	mix.MPEG.Flush()
	e.quality = func(m *RunMetrics) {
		mpegQuality(m, mix.MPEG)
		comparatorTally(m, c, mix.Names)
	}
	return nil
}

// mpegQuality folds the decoder's unplanned losses into the metrics.
func mpegQuality(m *RunMetrics, mpeg *workload.MPEG) {
	vs := mpeg.Stats()
	m.Loss = int64(vs.UnplannedLoss)
	m.Opportunities = int64(vs.Decoded + vs.PlannedDrops + vs.UnplannedLoss)
}

// baselineGenMix draws the jittered overload mix shared by RD and
// comparator runs: ~130-160% of the CPU across six periodic tasks.
type genSpec struct {
	name   string
	period ticks.Ticks
	cpu    ticks.Ticks
	shed   ticks.Ticks // the RD menu's second level
	weight int64
	at     ticks.Ticks
}

func baselineGenMix(seed uint64) []genSpec {
	rng := sim.NewRNG(sim.SplitSeed(seed, streamBaseline))
	periods := []int64{10, 20, 30}
	out := make([]genSpec, 6)
	for i := range out {
		period := ticks.FromMilliseconds(periods[rng.Intn(len(periods))])
		pct := int64(20 + rng.Intn(16)) // 20-35% each: ~165% offered in expectation
		cpu := period / 100 * ticks.Ticks(pct)
		out[i] = genSpec{
			name:   fmt.Sprintf("gen%d", i),
			period: period,
			cpu:    cpu,
			shed:   cpu / 2,
			weight: int64(1 + rng.Intn(3)),
			at:     ticks.FromMilliseconds(int64(rng.Intn(60))),
		}
	}
	return out
}

// runBaselineOverload stages the jittered mix. The RD admits what
// fits (shedding via two-level menus, denying the rest); the
// comparators accept everything and split the machine.
func runBaselineOverload(e *env, mk newComparator) error {
	specs := baselineGenMix(e.spec.Seed)
	if mk == nil {
		d := e.start(core.Config{})
		for i := range specs {
			g := specs[i]
			d.At(g.at, func() {
				_, _ = e.RequestAdmittance(&task.Task{
					Name: g.name,
					List: task.ResourceList{
						{Period: g.period, CPU: g.cpu, Fn: "Gen"},
						{Period: g.period, CPU: g.shed, Fn: "GenShed"},
					},
					Body:      task.BusyYield(),
					Semantics: task.ReturnSemantics,
				})
			})
		}
		d.Run(e.spec.Horizon)
		e.quality = func(m *RunMetrics) {
			var periods int64
			for _, a := range e.admits {
				if st, ok := d.Stats(a.id); ok {
					periods += st.Periods
				}
			}
			m.Loss = e.pr.misses
			m.Opportunities = periods
		}
		return nil
	}

	k := e.startKernel()
	c := mk(k, e.spec.Seed)
	c.Instrument(e.tel)
	names := make([]string, 0, len(specs))
	for i := range specs {
		g := specs[i]
		names = append(names, g.name)
		k.At(g.at, func() {
			c.Add(g.name, g.period, g.weight, task.PeriodicWork(g.cpu))
		})
	}
	c.RunUntil(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		var periods int64
		for _, n := range names {
			if st, ok := c.Stats(n); ok {
				periods += st.Periods
			}
		}
		comparatorTally(m, c, names)
		m.Loss = m.Misses
		m.Opportunities = periods
	}
	return nil
}

// dmaProducer is a periodic CPU stage that submits one DMA frame per
// period; the frame is late when its transfer completes after the
// period's deadline.
type dmaProducer struct {
	k      *sim.Kernel
	ch     *streamer.Channel
	period ticks.Ticks
	cpu    ticks.Ticks
	frame  int64

	stopped   bool
	submitted int64
	late      int64
	delivered int64
}

func (p *dmaProducer) Run(ctx task.RunContext) task.RunResult {
	left := p.cpu - ctx.UsedThisPeriod
	if left > ctx.Span {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}
	if !p.stopped {
		deadline := ctx.PeriodStart + p.period
		p.submitted++
		_ = p.ch.Submit(p.frame, func() {
			p.delivered++
			if p.k.Now() > deadline {
				p.late++
			}
		})
	}
	return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
}

// runBaselineStreamer is the contended-streamer scenario: three DMA
// producers demanding 420 MB/s of a 300 MB/s part, their CPU stages
// scheduled by a stride comparator so CPU grants and DMA rates
// interact. The allocator axis picks the bandwidth allocator: the
// RD's metered FCFS reservations, max-min fair or maximum-throughput.
// Mid-run the video channel doubles its demand and the archive
// channel closes, exercising reallocation.
func runBaselineStreamer(e *env, alloc streamer.Allocator) error {
	k := e.startKernel()
	eng := streamer.NewAllocated(k, 300, alloc)
	eng.Instrument(e.tel)

	c := baseline.NewStride(k, ticks.PerMillisecond)
	c.Instrument(e.tel)

	type chanSpec struct {
		name    string
		mbps    int64
		quality int64
		period  ticks.Ticks
		cpu     ticks.Ticks
		frame   int64
	}
	chans := []chanSpec{
		{"video", 200, 3, 10 * ms, 2 * ms, 1_500_000},
		{"preview", 120, 2, 20 * ms, 3 * ms, 1_000_000},
		{"archive", 100, 1, 30 * ms, 1 * ms, 2_000_000},
	}
	producers := make([]*dmaProducer, len(chans))
	channels := make([]*streamer.Channel, len(chans))
	names := make([]string, len(chans))
	for i, cs := range chans {
		ch, err := eng.OpenQuality(cs.name, cs.mbps, cs.quality)
		if err != nil {
			return err
		}
		channels[i] = ch
		p := &dmaProducer{k: k, ch: ch, period: cs.period, cpu: cs.cpu, frame: cs.frame}
		producers[i] = p
		c.Add(cs.name, cs.period, cs.quality, p)
		names[i] = cs.name
	}

	// Grant-change traffic: video's demand toggles every 150 ms (a
	// level change upstream), and archive closes at 70% of the run.
	toggle := false
	var retoggle func()
	retoggle = func() {
		toggle = !toggle
		want := int64(200)
		if toggle {
			want = 80
		}
		_ = channels[0].SetRate(want)
		k.After(150*ms, retoggle)
	}
	k.After(150*ms, retoggle)
	k.After(e.spec.Horizon*7/10, func() {
		producers[2].stopped = true
		channels[2].Close()
	})

	c.RunUntil(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		for i, p := range producers {
			m.Loss += p.late + (p.submitted - p.delivered)
			m.Opportunities += p.submitted
			m.StreamerBytes += channels[i].Stats().Bytes
		}
		comparatorTally(m, c, names)
	}
	return nil
}
