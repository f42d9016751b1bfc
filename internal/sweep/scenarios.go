package sweep

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

// Seed substreams. Stream 1 is sim.StreamPeek (the kernel's probe
// substream); the sweep forks its own decorrelated streams off the
// run seed so scenario-level randomness never touches the kernel's
// cost stream. The rngstream analyzer checks fleet-wide that no other
// package claims these values and that everything stays below the
// fault-injector band at fault.StreamBase.
const (
	streamStress   = 2 // stress-generator workload parameters
	streamGraphics = 3 // 3D renderer scene costs
)

// RD policy-box variants. Each RD scenario tables its own rankings
// per variant (see bindBox).
const (
	// PolicyInvent installs no policies: conflicts get the Box's
	// invented 1/N split (§6.3). On the comparator and allocator axes
	// it names the RD reference run.
	PolicyInvent = "invent"
	// PolicyAudioFirst protects audio (and the modem) when shedding,
	// per §4.3 "users are more sensitive to audio than video".
	PolicyAudioFirst = "audio-first"
	// PolicyVideoFirst spends the share budget on video and leaves
	// audio its 1% mute caretaker level.
	PolicyVideoFirst = "video-first"
)

// The policy axes. A scenario's runner reads exactly one, through an
// ordered table from policy name to the value that name configures;
// the scenario's supported policies, matrix expansion and AllPolicies
// are all derived from those tables.
const (
	axisBox        = "policy-box" // an RD policy-box variant (*policy.Box)
	axisComparator = "comparator" // the RD reference or a baseline scheduler
	axisAllocator  = "allocator"  // a streamer.Allocator
	axisPlacement  = "placement"  // a fleet.Placement
)

// option is one row of a policy-axis table.
type option[T any] struct {
	name string
	val  T
}

// binding is a scenario runner bound to the policy axis it reads.
type binding struct {
	Axis     string   // the policy axis the runner reads
	Policies []string // the axis's values, in matrix-expansion order
	configs  []any    // configs[i] is what Policies[i] configures
	run      func(e *env, i int) error
}

// bind binds a runner to an axis table: a run under opts[i].name
// hands the runner opts[i].val.
func bind[T any](axis string, opts []option[T], run func(*env, T) error) binding {
	b := binding{Axis: axis, run: func(e *env, i int) error { return run(e, opts[i].val) }}
	for _, o := range opts {
		b.Policies = append(b.Policies, o.name)
		b.configs = append(b.configs, o.val)
	}
	return b
}

// resolve returns the runner with pol's value bound, or false when
// pol is not on the scenario's axis.
func (b binding) resolve(pol string) (func(*env) error, bool) {
	i := slices.Index(b.Policies, pol)
	if i < 0 {
		return nil, false
	}
	return func(e *env) error { return b.run(e, i) }, true
}

// AllPolicies lists every policy some scenario consumes, in order of
// first appearance over the registry.
func AllPolicies() []string {
	var out []string
	for _, sc := range scenarios {
		for _, p := range sc.Policies {
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

func knownPolicy(name string) bool { return slices.Contains(AllPolicies(), name) }

// share is one (task name → percent) row used to declare policy
// rankings as ordered literals, keeping registration order (and so
// MemberID assignment) deterministic without ranging over a map.
type share struct {
	name string
	pct  int
}

// rankings is one policy-box variant: one default policy per ranking.
type rankings [][]share

// box builds a fresh Policy Box holding one default policy per
// ranking, registering task names shared between rankings once. No
// rankings means no box: the Distributor invents its 1/N split.
func (r rankings) box() *policy.Box {
	if len(r) == 0 {
		return nil
	}
	box := policy.NewBox()
	ids := make(map[string]policy.MemberID)
	for _, ranking := range r {
		for _, s := range ranking {
			if _, ok := ids[s.name]; !ok {
				ids[s.name] = box.Register(s.name)
			}
		}
	}
	for _, ranking := range r {
		pr := policy.Ranking{}
		for _, s := range ranking {
			pr[ids[s.name]] = s.pct
		}
		if err := box.SetDefault(policy.Policy{Shares: pr}); err != nil {
			panic(fmt.Sprintf("sweep: bad built-in policy: %v", err))
		}
	}
	return box
}

// bindBox binds an RD runner to its scenario's own policy-box table;
// each run hands the runner a Box freshly built from the variant's
// rankings.
func bindBox(opts []option[rankings], run func(*env, *policy.Box) error) binding {
	return bind(axisBox, opts, func(e *env, r rankings) error { return run(e, r.box()) })
}

// invented binds an RD runner that stages no policy-box variant: its
// table's one value is PolicyInvent.
func invented(run func(*env) error) binding {
	return bindBox([]option[rankings]{{PolicyInvent, nil}},
		func(e *env, _ *policy.Box) error { return run(e) })
}

// --- switch-cost models ---

type costModel struct {
	Name  string
	Desc  string
	costs func() sim.SwitchCosts
}

// costModels is the registry, in matrix-expansion order.
var costModels = []costModel{
	{"zero", "free deterministic switches (pure EDF arithmetic)", sim.ZeroSwitchCosts},
	{"paper-det", "§6.1 mean costs, deterministic", func() sim.SwitchCosts {
		c := sim.PaperSwitchCosts()
		c.Deterministic = true
		return c
	}},
	{"paper", "§6.1 Weibull-calibrated stochastic costs", sim.PaperSwitchCosts},
	{"cache", "paper costs plus a 40µs §5.6 cache-refill penalty", func() sim.SwitchCosts {
		c := sim.PaperSwitchCosts()
		c.CacheRefillUS = 40
		return c
	}},
}

// CostModelNames lists every registered cost model.
func CostModelNames() []string {
	out := make([]string, len(costModels))
	for i, cm := range costModels {
		out[i] = cm.Name
	}
	return out
}

// DefaultCostModels is the subset a matrix uses when none are named:
// the clean-arithmetic baseline and the paper's stochastic model.
func DefaultCostModels() []string { return []string{"zero", "paper"} }

func costModelByName(name string) (sim.SwitchCosts, bool) {
	for _, cm := range costModels {
		if cm.Name == name {
			return cm.costs(), true
		}
	}
	return sim.SwitchCosts{}, false
}

// --- per-run harness ---

// probe is the lightweight sched.Observer every sweep run installs:
// it counts guarantee violations and records each task's first period
// start, from which admission latency is derived.
type probe struct {
	misses      int64
	firstPeriod map[task.ID]ticks.Ticks
}

func newProbe() *probe { return &probe{firstPeriod: make(map[task.ID]ticks.Ticks)} }

func (p *probe) OnDispatch(task.ID, string, ticks.Ticks, ticks.Ticks, sched.DispatchKind, int) {}
func (p *probe) OnPeriodStart(id task.ID, start, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	if _, ok := p.firstPeriod[id]; !ok {
		p.firstPeriod[id] = start
	}
}
func (p *probe) OnDeadlineMiss(task.ID, ticks.Ticks, ticks.Ticks) { p.misses++ }
func (p *probe) OnSwitch(sim.SwitchKind, ticks.Ticks)             {}
func (p *probe) OnGrantApplied(task.ID, rm.Grant)                 {}
func (p *probe) OnBlock(task.ID, ticks.Ticks)                     {}

// env is the harness handed to a scenario's run function.
type env struct {
	spec   RunSpec
	costs  sim.SwitchCosts
	pr     *probe
	d      *core.Distributor
	admits []admitRec
	denied int64

	// k is set instead of d by comparator scenarios that run a bare
	// kernel under a baseline scheduler, with no Distributor at all.
	k *sim.Kernel

	// fl is set instead of d or k by fleet scenarios, which run a
	// whole internal/fleet cluster; runOne reads the cluster report
	// rather than a single kernel's stats.
	fl *fleet.Report

	// Cluster-construction overrides, used only by RunFleetCluster
	// (the rdsweep -cluster-manifest path): fleetWorkers replaces the
	// sweep's Workers=1 default, fleetSpanLog turns on full per-node
	// span logging, keepFleet retains the built cluster in flc so the
	// caller can extract manifests after the run.
	fleetWorkers int
	fleetSpanLog bool
	keepFleet    bool
	flc          *fleet.Cluster

	// chk, when armed via withInvariants, rides the observer chain and
	// audits the paper's guarantees during the run; runOne finalizes it
	// and folds its violation count into the metrics.
	chk *invariant.Checker
	// flog collects fault-injection and invariant events for the run.
	flog metrics.EventLog
	// tel is the run's telemetry (registry only — spans are per-run
	// detail the cell aggregates cannot use); runOne snapshots it into
	// RunMetrics.Telemetry for worker-invariant per-cell merging.
	tel *telemetry.Set

	// quality, set by the scenario before returning, folds its
	// workload-specific loss accounting into the run metrics.
	quality func(*RunMetrics)
}

type admitRec struct {
	id task.ID
	at ticks.Ticks
}

// start assembles the run's Distributor, applying the spec's seed and
// cost model plus the sweep's probe observer to the scenario's config.
// When withInvariants armed a checker, the checker becomes the
// observer and chains to the probe, so standard metrics still flow.
func (e *env) start(cfg core.Config) *core.Distributor {
	cfg.Seed = e.spec.Seed
	cfg.SwitchCosts = &e.costs
	if e.chk != nil {
		cfg.Observer = e.chk
	} else {
		cfg.Observer = e.pr
	}
	e.tel = &telemetry.Set{Registry: telemetry.NewRegistry()}
	cfg.Telemetry = e.tel
	e.d = core.New(cfg)
	if e.chk != nil {
		e.chk.Bind(e.d.Kernel(), e.d.Manager(), e.d.Scheduler())
		e.chk.EnableTelemetry(e.tel)
	}
	return e.d
}

// startKernel assembles a bare kernel (plus the run's telemetry set)
// for comparator scenarios that run a baseline scheduler directly,
// without a Distributor. Mutually exclusive with start.
func (e *env) startKernel() *sim.Kernel {
	e.tel = &telemetry.Set{Registry: telemetry.NewRegistry()}
	e.k = sim.NewKernel(sim.Config{Seed: e.spec.Seed, Costs: e.costs})
	e.k.EnableTelemetry(e.tel.Reg())
	return e.k
}

// withInvariants arms the runtime guarantee checker for this run.
// Call it before start; violations are mirrored into the run's event
// log and counted in RunMetrics.Violations.
func (e *env) withInvariants() {
	e.chk = invariant.New(e.pr)
	e.chk.LogTo(&e.flog)
}

// admit requests admittance, recording the request time for admission
// latency (quiescent tasks are recorded at Wake instead — see wake)
// and counting denials.
func (e *env) admit(t *task.Task) (task.ID, error) {
	id, err := e.d.RequestAdmittance(t)
	if err != nil {
		e.denied++
		return task.NoID, err
	}
	if !t.StartQuiescent {
		e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	}
	return id, nil
}

// wake returns a quiescent task to service; its admission latency
// clock starts here (a quiescent task consumes nothing on purpose, so
// measuring from RequestAdmittance would time the phone not ringing).
func (e *env) wake(id task.ID) error {
	if err := e.d.Wake(id); err != nil {
		return err
	}
	e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	return nil
}

// server admits a Sporadic Server, recording it like admit.
func (e *env) server(name string, list task.ResourceList, alwaysOvertime bool) (task.ID, error) {
	id, err := e.d.AddSporadicServer(name, list, alwaysOvertime)
	if err != nil {
		e.denied++
		return task.NoID, err
	}
	e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	return id, nil
}

// admissionLatenciesMS derives request→first-period latencies, in
// admission order. Tasks that never started (e.g. admitted just
// before the horizon) contribute no sample.
func (e *env) admissionLatenciesMS() []float64 {
	var out []float64
	for _, a := range e.admits {
		if start, ok := e.pr.firstPeriod[a.id]; ok {
			out = append(out, (start - a.at).MillisecondsF())
		}
	}
	return out
}

// --- scenario registry ---

// Scenario is one runnable experiment shape, bound to the one policy
// axis its runner reads.
type Scenario struct {
	Name string
	Desc string
	binding
}

// scenarios is the registry, in matrix-expansion order.
var scenarios = []Scenario{
	{"settop", "Table 4 set-top box: modem + 3D renderer + stored MPEG",
		bindBox(settopBoxes, runSettop)},
	{"media", "set-top mix plus AC3 audio, exercising audio/video policy trades",
		bindBox(mediaBoxes, runMedia)},
	{"overload", "Figure 5 staircase: Sporadic Server + five BusyLoop threads arriving 20ms apart",
		invented(runOverload)},
	{"quiescent", "§5.3 telephone answering: DVD + AC3, quiescent modem woken mid-run",
		bindBox(quiescentBoxes, runQuiescent)},
	{"studio", "live transport stream + AC3 + overlay + interrupts + Sporadic Server",
		bindBox(studioBoxes, runStudio)},
	{"stress", "seed-jittered generator: staggered admits, exits, grant assignment, removal",
		invented(runStress)},
	{"baseline-media", "§3.5 MPEG + three 30% workers (120% load) under RD vs proportional-share comparators",
		bind(axisComparator, comparators, runBaselineMedia)},
	{"baseline-overload", "seed-jittered overloaded periodic mix: RD sheds by menu, comparators thrash",
		bind(axisComparator, comparators, runBaselineOverload)},
	{"baseline-streamer", "contended Data Streamer: three DMA producers over capacity, CPU grants × allocator policy",
		bind(axisAllocator, allocators, runBaselineStreamer)},
	{"fault-overrun", "media mix plus a task overrunning its declared CPU every period",
		invented(runFaultOverrun)},
	{"fault-crash", "media mix plus a task crash/restart cycle (terminate + re-admit)",
		invented(runFaultCrash)},
	{"fault-storm", "interrupt storms over the §5.2 reserve, shed by the overload governor",
		invented(runFaultStorm)},
	{"fault-jitter", "late, coalesced timer delivery under the media mix",
		invented(runFaultJitter)},
	{"fault-policy", "corrupted policy-box input fed to Load mid-run",
		invented(runFaultPolicy)},
	{"fleet-spill", "16 tight nodes under a heavy arrival stream: spillover, backoff, rejection",
		bind(axisPlacement, placements, runFleetSpill)},
	{"fleet-surge", "48 nodes, correlated interrupt storms over a third of the fleet: shedding and migration",
		bind(axisPlacement, placements, runFleetSurge)},
	{"fleet-crash", "120 nodes, roaming crash/restart cycles plus a correlated storm front: recovery",
		bind(axisPlacement, placements, runFleetCrash)},
}

// Scenarios lists the registered scenarios.
func Scenarios() []Scenario { return append([]Scenario(nil), scenarios...) }

// ScenarioNames lists registered scenario names in registry order.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

func scenarioByName(name string) (Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// busyBody returns a body that consumes its whole span and reports
// completion — the DVD/overlay idiom from the examples.
func busyBody() task.Body {
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
}

// soakBody returns a sporadic body that always wants more time, like
// the studio indexer.
func soakBody() task.Body {
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	})
}

// --- scenarios ---

var settopBoxes = []option[rankings]{
	{PolicyInvent, nil},
	{PolicyVideoFirst, rankings{{{"mpeg", 34}, {"3d", 45}, {"modem", 10}}}},
}

func runSettop(e *env, box *policy.Box) error {
	d := e.start(core.Config{PolicyBox: box})

	modem := workload.NewModem()
	if _, err := e.admit(modem.Task(false)); err != nil {
		return err
	}
	g3d := workload.NewGraphics3D(sim.SplitSeed(e.spec.Seed, streamGraphics))
	if _, err := e.admit(g3d.Task()); err != nil {
		return err
	}
	mpeg := workload.NewMPEG()
	if _, err := e.admit(mpeg.Task()); err != nil {
		return err
	}

	d.Run(e.spec.Horizon)
	mpeg.Flush()
	e.quality = func(m *RunMetrics) {
		vs, mo := mpeg.Stats(), modem.Stats()
		m.Loss = int64(vs.UnplannedLoss + mo.Overruns)
		m.Opportunities = int64(vs.Decoded + vs.PlannedDrops + vs.UnplannedLoss + mo.Serviced + mo.Overruns)
	}
	return nil
}

var mediaBoxes = []option[rankings]{
	{PolicyInvent, nil},
	{PolicyAudioFirst, rankings{{{"ac3", 12}, {"modem", 10}, {"mpeg", 34}, {"3d", 30}}}},
	{PolicyVideoFirst, rankings{{{"mpeg", 34}, {"3d", 45}, {"modem", 10}, {"ac3", 1}}}},
}

func runMedia(e *env, box *policy.Box) error {
	d := e.start(core.Config{PolicyBox: box})

	modem := workload.NewModem()
	if _, err := e.admit(modem.Task(false)); err != nil {
		return err
	}
	ac3 := workload.NewAC3()
	if _, err := e.admit(ac3.Task()); err != nil {
		return err
	}
	g3d := workload.NewGraphics3D(sim.SplitSeed(e.spec.Seed, streamGraphics))
	if _, err := e.admit(g3d.Task()); err != nil {
		return err
	}
	mpeg := workload.NewMPEG()
	if _, err := e.admit(mpeg.Task()); err != nil {
		return err
	}

	d.Run(e.spec.Horizon)
	mpeg.Flush()
	ac3.Flush()
	e.quality = func(m *RunMetrics) {
		vs, as, mo := mpeg.Stats(), ac3.Stats(), modem.Stats()
		m.Loss = int64(vs.UnplannedLoss + as.Dropouts + mo.Overruns)
		m.Opportunities = int64(vs.Decoded+vs.PlannedDrops+vs.UnplannedLoss) +
			int64(as.Frames+as.Dropouts+mo.Serviced+mo.Overruns)
	}
	return nil
}

func runOverload(e *env) error {
	d := e.start(core.Config{InterruptReservePercent: 4})

	if _, err := e.server("sporadic", task.SingleLevel(2_700_000, 27_000, "SporadicServer"), true); err != nil {
		return err
	}
	d.AddSporadic("soaker", soakBody())

	// Figure 5's 20 ms stagger, jittered per seed so the admission
	// points (and hence the staircase boundaries) vary across runs.
	rng := sim.NewRNG(sim.SplitSeed(e.spec.Seed, streamStress))
	for i := 0; i < 5; i++ {
		at := ticks.Ticks(i)*20*ms + ticks.FromMilliseconds(int64(rng.Intn(6)))
		name := fmt.Sprintf("thread%d", i+2)
		d.At(at, func() {
			_, _ = e.admit(workload.BusyLoopTask(name))
		})
	}

	d.Run(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		// Figure 5's claim is "no missed deadlines through every
		// admission": loss here is guarantee violations per period.
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

var quiescentBoxes = []option[rankings]{
	{PolicyInvent, nil},
	{PolicyAudioFirst, rankings{
		{{"dvd", 70}, {"ac3", 12}, {"modem", 10}},
		{{"dvd", 80}, {"ac3", 12}}}},
	{PolicyVideoFirst, rankings{
		{{"dvd", 85}, {"ac3", 1}, {"modem", 10}},
		{{"dvd", 90}, {"ac3", 1}}}},
}

func runQuiescent(e *env, box *policy.Box) error {
	d := e.start(core.Config{PolicyBox: box})

	if _, err := e.admit(&task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ms, "DecodeDVD", 85, 70, 55, 40),
		Body: busyBody(),
	}); err != nil {
		return err
	}
	ac3 := workload.NewAC3()
	if _, err := e.admit(ac3.Task()); err != nil {
		return err
	}
	modem := workload.NewModem()
	modemID, err := e.admit(modem.Task(true))
	if err != nil {
		return err
	}
	// The telephone rings halfway through the run; the woken modem
	// cannot be denied (§5.3).
	d.At(e.spec.Horizon/2, func() {
		if err := e.wake(modemID); err != nil {
			panic(fmt.Sprintf("sweep: wake quiescent modem: %v", err))
		}
	})

	d.Run(e.spec.Horizon)
	ac3.Flush()
	e.quality = func(m *RunMetrics) {
		as, mo := ac3.Stats(), modem.Stats()
		m.Loss = int64(as.Dropouts + mo.Overruns)
		m.Opportunities = int64(as.Frames + as.Dropouts + mo.Serviced + mo.Overruns)
	}
	return nil
}

var studioBoxes = []option[rankings]{
	{PolicyInvent, nil},
	{PolicyAudioFirst, rankings{
		{{"mpeg-live", 33}, {"ac3", 25}, {"overlay", 15}, {"modem", 10}, {"sporadic", 1}},
		{{"mpeg-live", 40}, {"ac3", 25}, {"overlay", 15}, {"sporadic", 1}}}},
	{PolicyVideoFirst, rankings{
		{{"mpeg-live", 50}, {"ac3", 12}, {"overlay", 20}, {"modem", 10}, {"sporadic", 1}},
		{{"mpeg-live", 55}, {"ac3", 12}, {"overlay", 20}, {"sporadic", 1}}}},
}

func runStudio(e *env, box *policy.Box) error {
	d := e.start(core.Config{
		InterruptReservePercent: 4,
		PolicyBox:               box,
		Streamer:                resource.Capacity{StreamerMBps: 400},
	})

	stream := workload.NewTransportStream(d, 900_000, 6)
	dec := workload.NewStreamedMPEG(stream)
	mpegID, err := e.admit(dec.Task())
	if err != nil {
		return err
	}
	stream.Start(d, mpegID)

	ac3 := workload.NewAC3()
	if _, err := e.admit(ac3.Task()); err != nil {
		return err
	}
	if _, err := e.admit(&task.Task{
		Name: "overlay",
		List: task.ResourceList{
			{Period: 10 * ms, CPU: 2 * ms, Fn: "OverlayFull", StreamerMBps: 80},
			{Period: 10 * ms, CPU: 1 * ms, Fn: "OverlayHalf", StreamerMBps: 40},
		},
		Body:      busyBody(),
		Semantics: task.ReturnSemantics,
	}); err != nil {
		return err
	}
	modem := workload.NewModem()
	modemID, err := e.admit(modem.Task(true))
	if err != nil {
		return err
	}
	d.At(e.spec.Horizon/2, func() {
		if err := e.wake(modemID); err != nil {
			panic(fmt.Sprintf("sweep: wake quiescent modem: %v", err))
		}
	})

	if _, err := e.server("sporadic", task.SingleLevel(10*ms, ms/2, "SS"), true); err != nil {
		return err
	}
	d.AddSporadic("indexer", soakBody())
	if err := d.AddInterruptLoad(ms, 25*ticks.PerMicrosecond); err != nil {
		return err
	}

	d.Run(e.spec.Horizon)
	ac3.Flush()
	e.quality = func(m *RunMetrics) {
		ss, ds, as, mo := stream.Stats(), dec.Stats(), ac3.Stats(), modem.Stats()
		m.Loss = int64(ss.Overruns + ds.Ruined + as.Dropouts + mo.Overruns)
		m.Opportunities = int64(ss.Arrived + as.Frames + as.Dropouts + mo.Serviced + mo.Overruns)
	}
	return nil
}

// runStress is the seed-jittered stress generator: a randomized task
// population (periods, level menus, staggered admissions, natural
// exits) plus mid-run sporadic grant assignment and removal. All
// randomness comes from a substream forked off the run seed, so a
// given spec replays identically.
func runStress(e *env) error {
	rng := sim.NewRNG(sim.SplitSeed(e.spec.Seed, streamStress))
	d := e.start(core.Config{InterruptReservePercent: int64(rng.Intn(5))})

	var periodsRun int64
	periodChoices := []int64{5, 10, 15, 20, 30, 50} // ms
	n := 4 + rng.Intn(5)
	var donor task.ID
	for i := 0; i < n; i++ {
		period := ticks.FromMilliseconds(periodChoices[rng.Intn(len(periodChoices))])
		pct := 15 + rng.Intn(56) // top level 15..70%
		var list task.ResourceList
		for len(list) < 4 && pct >= 5 {
			list = append(list, task.Entry{
				Period: period,
				CPU:    period / 100 * ticks.Ticks(pct),
				Fn:     "Stress",
			})
			pct = pct * (5 + rng.Intn(5)) / 10 // shed to 50-90% of previous
		}
		exitAfter := 0
		if rng.Intn(2) == 1 {
			exitAfter = 20 + rng.Intn(60) // periods until natural exit
		}
		at := ticks.FromMilliseconds(int64(rng.Intn(80)))
		name := fmt.Sprintf("gen%d", i)
		spec := &task.Task{Name: name, List: list, Body: stressBody(exitAfter, &periodsRun)}
		wantDonor := exitAfter == 0
		d.At(at, func() {
			id, err := e.admit(spec)
			if err == nil && wantDonor && donor == task.NoID {
				donor = id
			}
		})
	}

	// Mid-run sporadic machinery: a general §5.1 grant assignment to a
	// sporadic task, then removal of that task while the assignment
	// may still be active — the RemoveSporadic regression surface.
	sp := d.AddSporadic("burst", soakBody())
	d.At(100*ms, func() {
		if donor != task.NoID {
			_ = d.AssignGrant(donor, sp, 40*ms)
		}
	})
	d.At(ticks.FromMilliseconds(int64(120+rng.Intn(40))), func() {
		d.RemoveSporadic(sp)
	})

	d.Run(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		m.Loss = e.pr.misses
		m.Opportunities = periodsRun
	}
	return nil
}

// stressBody builds a generator body: consume the span, count
// periods, and exit after exitAfter periods (0 = never).
func stressBody(exitAfter int, periodsRun *int64) task.Body {
	periods := 0
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			periods++
			*periodsRun++
			if exitAfter > 0 && periods > exitAfter {
				return task.RunResult{Op: task.OpExit}
			}
		}
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
}
