package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/metrics"
	"lachesis/internal/simctl"
	"lachesis/internal/simos"
	"lachesis/internal/spe"
	"lachesis/internal/workloads"
)

// lr-spike: the paper's Linear Road query on Storm on an Odroid-XU4 node,
// scheduled by Lachesis-QS (nice translator, 1 s period) through simctl,
// as the Fig. 9 configuration of the harness builds it. The source is
// open loop and seeded: it offers lrBase tuples/s, which QS sustains and
// default OS scheduling does not (Fig. 9), then spikes to lrSpike, past
// QS's ~5.7k saturation point, for lrSpikeLen, and returns to lrBase.
// Each episode is one such timeline on a fresh simulated stack; a run
// measures episodes until its time is up.

const (
	lrBase     = 5200.0
	lrSpike    = 6500.0
	lrWarmup   = 10 * time.Second
	lrPre      = 10 * time.Second
	lrSpikeLen = 10 * time.Second
	lrPost     = 40 * time.Second
	// lrSample is the virtual interval between backlog samples.
	lrSample = 100 * time.Millisecond
)

// spikeSource offers lrBase tuples/s except during [from, to), where it
// offers lrSpike; tuples are Linear Road position reports.
type spikeSource struct {
	from, to time.Duration
	rng      *rand.Rand
}

var _ spe.Source = (*spikeSource)(nil)

// Arrived implements spe.Source by integrating the piecewise rate.
func (s *spikeSource) Arrived(now time.Duration) int64 {
	if now < 0 {
		return 0
	}
	t, a, b := now.Seconds(), s.from.Seconds(), s.to.Seconds()
	switch {
	case t < a:
		return int64(t * lrBase)
	case t < b:
		return int64(a*lrBase + (t-a)*lrSpike)
	default:
		return int64(a*lrBase + (b-a)*lrSpike + (t-b)*lrBase)
	}
}

// ArrivalTime implements spe.Source: the inverse of Arrived.
func (s *spikeSource) ArrivalTime(i int64) time.Duration {
	n := float64(i + 1)
	a, b := s.from.Seconds(), s.to.Seconds()
	n0, n1 := a*lrBase, a*lrBase+(b-a)*lrSpike
	var sec float64
	switch {
	case n <= n0:
		sec = n / lrBase
	case n <= n1:
		sec = a + (n-n0)/lrSpike
	default:
		sec = b + (n-n1)/lrBase
	}
	t := time.Duration(sec * float64(time.Second))
	for s.Arrived(t) <= i {
		t++
	}
	return t
}

// Make implements spe.Source with the reports workloads.LRSource makes.
func (s *spikeSource) Make(int64) spe.Tuple {
	t := spe.Tuple{Key: uint64(s.rng.Intn(4096)), Value: 40 + s.rng.Float64()*80}
	if s.rng.Float64() < 0.01 {
		t.Value = -1
	}
	return t
}

// lrTracer holds a traced episode's decorator timers.
type lrTracer struct {
	os                   osTimers
	fetch, sched, latest timer
	record, translate    timer
}

// lrSnap is a point-in-time reading of an lrTracer's cumulative timers.
type lrSnap struct {
	fetch, sched, translate, osWrites time.Duration
	osCalls                           int64
}

func (tr *lrTracer) snap() lrSnap {
	if tr == nil {
		return lrSnap{}
	}
	return lrSnap{tr.fetch.total(), tr.sched.total(), tr.translate.total(), tr.os.writeTotal(), tr.os.writeCalls()}
}

func (s lrSnap) minus(o lrSnap) lrSnap {
	return lrSnap{s.fetch - o.fetch, s.sched - o.sched, s.translate - o.translate, s.osWrites - o.osWrites, s.osCalls - o.osCalls}
}

func (s lrSnap) plus(o lrSnap) lrSnap {
	return lrSnap{s.fetch + o.fetch, s.sched + o.sched, s.translate + o.translate, s.osWrites + o.osWrites, s.osCalls + o.osCalls}
}

// lrStack is one assembled simulation.
type lrStack struct {
	k      *simos.Kernel
	dep    *spe.Deployment
	src    *spikeSource
	mw     *core.Middleware
	runner *simctl.Runner
}

func buildLR(seed int64, tr *lrTracer) (*lrStack, error) {
	k := simos.New(simos.OdroidXU4())
	eng, err := spe.New(k, spe.Config{Name: "storm0", Flavor: spe.FlavorStorm, Seed: seed})
	if err != nil {
		return nil, err
	}
	start := lrWarmup + lrPre
	src := &spikeSource{from: start, to: start + lrSpikeLen, rng: rand.New(rand.NewSource(seed * 31))}
	dep, err := eng.Deploy(workloads.LinearRoad(1), src)
	if err != nil {
		return nil, err
	}
	store := metrics.NewStore(time.Second)
	var sink spe.MetricSink = store
	var source driver.Source = store
	if tr != nil {
		sink = &timedSink{inner: store, t: &tr.record}
		source = &timedSource{inner: store, t: &tr.latest}
	}
	if err := eng.StartReporter(sink, time.Second); err != nil {
		return nil, err
	}
	drv, err := driver.NewFromSource(eng, source)
	if err != nil {
		return nil, err
	}
	osa, err := simctl.NewOSAdapter(k)
	if err != nil {
		return nil, err
	}
	var osi core.OSInterface = osa
	var d core.Driver = drv
	var pol core.Policy = core.NewQSPolicy()
	if tr != nil {
		if osi, err = wrapOS(osa, &tr.os); err != nil {
			return nil, err
		}
		d = &timedDriver{inner: drv, t: &tr.fetch}
		if pol, err = newTimedPolicy(pol, &tr.sched, nil); err != nil {
			return nil, err
		}
	}
	var translator core.Translator = core.NewNiceTranslator(osi)
	if tr != nil {
		if translator, err = newTimedTranslator(translator, &tr.translate); err != nil {
			return nil, err
		}
	}
	mw := core.NewMiddleware(nil)
	if err := mw.Bind(core.Binding{Policy: pol, Translator: translator, Drivers: []core.Driver{d}, Period: time.Second}); err != nil {
		return nil, err
	}
	runner, err := simctl.StartMiddleware(k, mw)
	if err != nil {
		return nil, err
	}
	return &lrStack{k: k, dep: dep, src: src, mw: mw, runner: runner}, nil
}

// backlog is every source tuple not yet processed to the end: those the
// ingress has not pulled yet plus those queued at the operators. On Storm
// the ingress never blocks (queues are unbounded), so the queued part is
// where a spike accumulates.
func (s *lrStack) backlog() int64 {
	now := s.k.Now()
	b := s.src.Arrived(now) - s.dep.Ingested()
	for _, op := range s.dep.Ops() {
		if op.Kind() != spe.KindIngress {
			b += int64(op.QueueLen(now))
		}
	}
	return b
}

// lrEpisode is what one episode measured.
type lrEpisode struct {
	setupCPU time.Duration
	setup    time.Duration // wall
	walls    []float64     // ms per simulated second, measured window
	cpus     []float64     // process CPU ms per simulated second
	wall     time.Duration
	simSec   float64
	tput     float64 // ingress-equivalent tuples/s during the spike
	e2eP50   float64 // ms
	e2eP99   float64 // ms
	recover  float64 // s, -1 if the backlog did not drain
	peak     int64
	switches int64
	ingested int64
	stepErrs int64
	contract int64
	stepWall time.Duration
	steps    int64
	// traced is what the tracer's timers took in the measured window.
	traced lrSnap
}

func runEpisode(seed int64, tr *lrTracer) (lrEpisode, error) {
	var ep lrEpisode
	s0, c0 := time.Now(), cpuTime()
	st, err := buildLR(seed, tr)
	if err != nil {
		return ep, err
	}
	k := st.k
	k.RunUntil(lrWarmup)
	ep.setup, ep.setupCPU = time.Since(s0), cpuTime()-c0
	// The middleware steps during the warm-up too; per-binding values
	// cover the measured window only.
	tr0 := tr.snap()

	st.dep.ResetStats()
	hist := st.mw.Telemetry().Histogram(core.MetricStepSeconds)
	stepSum0, steps0 := hist.Sum(), hist.Count()
	sw0, ing0 := k.ContextSwitches(), st.dep.Ingested()
	spikeFrom, spikeTo := st.src.from, st.src.to
	end := spikeTo + lrPost
	var egressAtFrom, egressAtTo int64
	var preLevel int64
	ep.recover = -1
	w0 := time.Now()
	for sec := lrWarmup; sec < end; sec += time.Second {
		ws, cs := time.Now(), cpuTime()
		for t := sec + lrSample; t <= sec+time.Second; t += lrSample {
			k.RunUntil(t)
			b := st.backlog()
			ep.peak = max(ep.peak, b)
			switch {
			case t <= spikeFrom:
				preLevel = max(preLevel, b)
			case t > spikeTo && ep.recover < 0 && b <= preLevel:
				ep.recover = (t - spikeTo).Seconds()
			}
			if t == spikeFrom {
				egressAtFrom = st.dep.EgressCount()
			}
			if t == spikeTo {
				egressAtTo = st.dep.EgressCount()
			}
		}
		ep.walls = append(ep.walls, ms(time.Since(ws)))
		ep.cpus = append(ep.cpus, ms(cpuTime()-cs))
	}
	ep.wall = time.Since(w0)
	ep.traced = tr.snap().minus(tr0)
	ep.simSec = (end - lrWarmup).Seconds()
	ep.switches = k.ContextSwitches() - sw0
	ep.ingested = st.dep.Ingested() - ing0
	ep.stepWall, ep.steps = hist.Sum()-stepSum0, hist.Count()-steps0
	processed := float64(egressAtTo - egressAtFrom)
	if exp := st.dep.Query.ExpectedEgressPerIngress(); exp > 0 {
		processed /= exp
	}
	ep.tput = processed / lrSpikeLen.Seconds()
	lat := st.dep.Latencies()
	ep.e2eP50 = percentile(lat.E2ESamples, 50) * 1000
	ep.e2eP99 = percentile(lat.E2ESamples, 99) * 1000
	ep.stepErrs = st.runner.Errs
	ep.contract = k.ContractViolations()
	return ep, nil
}

// lrPhase runs episodes until the deadline (at least one).
func lrPhase(ctx context.Context, seed int64, until time.Time, tr *lrTracer, first int) ([]lrEpisode, error) {
	var eps []lrEpisode
	for i := first; ctx.Err() == nil && (len(eps) == 0 || time.Now().Before(until)); i++ {
		ep, err := runEpisode(int64(mix(seed, 0x1a, int64(i))>>1), tr)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

func runLRSpike(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}, notes: map[string]string{}}
	deadline := time.Now().Add(cfg.seconds)
	var tr *lrTracer
	var base []lrEpisode
	if cfg.trace {
		var err error
		if base, err = lrPhase(ctx, cfg.seed, time.Now().Add(cfg.seconds/2), nil, 0); err != nil {
			return nil, err
		}
		tr = &lrTracer{}
	}
	eps, err := lrPhase(ctx, cfg.seed, deadline, tr, len(base))
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return out, nil
	}

	var walls, cpus, setups, setupWalls, tputs, p50s, p99s, recovers, peaks []float64
	var wall, stepWall time.Duration
	var sim float64
	var switches, ingested, steps int64
	var traced lrSnap
	for i, ep := range eps {
		out.attempted += int64(len(ep.walls)) + 3
		if ep.stepErrs > 0 {
			out.fail("episode %d: %d middleware step errors", i, ep.stepErrs)
		}
		if ep.contract > 0 {
			out.fail("episode %d: %d simulated-kernel contract violations", i, ep.contract)
		}
		if ep.recover < 0 {
			out.fail("episode %d: backlog did not drain within %v of the spike's end", i, lrPost)
		}
		walls = append(walls, ep.walls...)
		cpus = append(cpus, ep.cpus...)
		setups = append(setups, ep.setupCPU.Seconds())
		setupWalls = append(setupWalls, ep.setup.Seconds())
		tputs = append(tputs, ep.tput)
		p50s = append(p50s, ep.e2eP50)
		p99s = append(p99s, ep.e2eP99)
		recovers = append(recovers, ep.recover)
		peaks = append(peaks, float64(ep.peak))
		wall += ep.wall
		sim += ep.simSec
		switches += ep.switches
		ingested += ep.ingested
		stepWall += ep.stepWall
		steps += ep.steps
		traced = traced.plus(ep.traced)
	}
	out.setEndToEnd(median(setups), median(setupWalls), median(cpus), walls, "simulated seconds", "sim_speed_x", sim/wall.Seconds())
	out.add("query_tput_tps", median(tputs), "t/s")
	out.add("query_e2e_p50_ms", median(p50s), "ms")
	out.add("query_e2e_p99_ms", median(p99s), "ms")
	out.add("recover_s", median(recovers), "s")
	out.add("episodes", float64(len(eps)), "count")
	out.notes["timeline"] = fmt.Sprintf("per episode: %v warm-up, %v at %.0f t/s, %v at %.0f t/s, %v at %.0f t/s",
		lrWarmup, lrPre, lrBase, lrSpikeLen, lrSpike, lrPost, lrBase)

	if tr != nil {
		var baseWalls []float64
		for _, ep := range base {
			baseWalls = append(baseWalls, ep.walls...)
		}
		n := float64(steps)
		L := out.layers
		L["core.fetch_us_per_binding"] = us(traced.fetch) / n
		L["core.schedule_us_per_binding"] = us(traced.sched) / n
		L["core.translate_us_per_binding"] = us(traced.translate-traced.osWrites) / n
		L["core.cycle_other_ms"] = ms(stepWall-traced.fetch-traced.sched-traced.translate) / n
		L["core.mw_wall_share"] = stepWall.Seconds() / wall.Seconds()
		L["metrics.latest_us"] = tr.latest.avgUS()
		L["metrics.record_us"] = tr.record.avgUS()
		L["simos.wall_ms_per_sim_s"] = ms(wall) / sim
		L["simos.switches_per_sim_s"] = float64(switches) / sim
		L["spe.tuples_per_sim_s"] = float64(ingested) / sim
		L["spe.backlog_peak"] = median(peaks)
		L["simctl.control_ops"] = float64(traced.osCalls) / float64(len(eps))
		L["trace.overhead_ratio"] = ratio(median(walls), median(baseWalls))
	}
	return out, nil
}
