package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/guard"
	"lachesis/internal/metrics"
	"lachesis/internal/oslinux"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
	"lachesis/internal/spe"
	"lachesis/internal/telemetry"
)

// The control workloads drive the chain `lachesisd -dry-run=false -state
// DIR -reconcile-interval 5s` builds (cmd/lachesisd/main.go), on the real
// kernel: per binding a canary Slot over a GroupPerQuery QS policy, the
// combined nice+cpu.shares translator, an OpGuard with kernel-range
// invariants and a Coalescer; below them, shared by all bindings,
// RecordOS over a DesiredState persisted in an fsync'd reconcile.Store,
// AuditOS and oslinux.Control. A Reconciler pass runs every
// reconcileEvery periods. There is no write queue and no memoization:
// the shipped daemon enables neither.

const (
	ctlBindings      = 256
	ctlOpsPerBinding = 4
	ctlPeriod        = time.Second
	// reconcileEvery is the pass interval in periods: the README's
	// production command reconciles every 5 s at a 1 s period.
	reconcileEvery = 5
	// ctlSetups is how many times a run sets the world up; setup_s is
	// the median.
	ctlSetups = 3
	// seqCycles is how many sequential cycles the traced run times.
	seqCycles = 10
)

// ctlBinding is one binding's population: one query of four operators.
type ctlBinding struct {
	query string
	group string // the cgroup GroupPerQuery assigns the query
	ents  []core.Entity
}

// controlWorld is one assembled control chain on its own host.
type controlWorld struct {
	churn bool
	h     *host

	stateDir string
	store    *reconcile.Store
	state    *reconcile.DesiredState
	ctl      *oslinux.Control
	trail    *core.AuditTrail
	replay   *replaySink
	mw       *core.Middleware
	canary   *guard.Canary
	coals    []*core.Coalescer
	rec      *reconcile.Reconciler
	metrics  *metrics.Store
	gen      *generator
	bindings []ctlBinding
	adv      *rand.Rand

	// now is the virtual time of the latest cycle.
	now   time.Duration
	cycle int

	tr *ctlTracer // nil in an untraced world

	// boundaries are the values bound at each layer boundary the traced
	// run decorates (the first binding's, and the shared chain's), in a
	// fixed order, so tests can compare a traced world with a plain one.
	boundaries []any
}

// ctlTracer holds the traced world's decorator timers.
type ctlTracer struct {
	guard, coal, record, audit, os osTimers
	ident, fetch, sched            timer
	latest, record2, canary        timer
	translate                      timer
	translators                    []*timedTranslator
	log                            spanLog
}

// stateRoot is where the control workloads keep desired state: a
// directory on the host disk, inside the working directory.
func stateRoot() string { return filepath.Join(".bench_build", "perfbench-state") }

var stateSeq atomic.Int64

// buildControl sets up one world and runs its warm-up cycles. On error
// everything it set up is torn down again.
func buildControl(seed int64, churn, traced bool) (w *controlWorld, err error) {
	w = &controlWorld{churn: churn, adv: rand.New(rand.NewSource(seed ^ 0x5eed))}
	defer func() {
		if err != nil {
			err = errors.Join(err, w.teardown())
			w = nil
		}
	}()
	if w.h, err = newHost(ctlBindings * ctlOpsPerBinding); err != nil {
		return w, err
	}
	if traced {
		w.tr = &ctlTracer{}
	}
	tr := w.tr

	w.stateDir = filepath.Join(stateRoot(), fmt.Sprintf("%d-%d", os.Getpid(), stateSeq.Add(1)))
	if err := os.MkdirAll(w.stateDir, 0o755); err != nil {
		return w, fmt.Errorf("state dir: %w", err)
	}
	sfs, err := reconcile.NewOSFS(w.stateDir)
	if err != nil {
		return w, fmt.Errorf("state dir: %w", err)
	}
	w.store = reconcile.NewStore(sfs, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: state: "+format+"\n", args...)
	})
	if w.state, err = reconcile.NewDesiredState(w.store); err != nil {
		return w, fmt.Errorf("desired state: %w", err)
	}
	if w.ctl, err = oslinux.New(oslinux.Config{Root: w.h.cgroupRoot(), Version: oslinux.V1}); err != nil {
		return w, err
	}

	w.replay = newReplaySink()
	w.trail = core.NewAuditTrail(0, w.replay)
	var backend core.OSInterface = w.ctl
	ident := w.ctl.Identity
	if tr != nil {
		if backend, err = wrapOS(w.ctl, &tr.os); err != nil {
			return w, err
		}
		ident = timedIdent(ident, &tr.ident)
	}
	audited := core.AuditOS(backend, w.trail)
	if tr != nil {
		if audited, err = wrapOS(audited, &tr.audit); err != nil {
			return w, err
		}
	}
	entityOf := make(map[int]string, ctlBindings*ctlOpsPerBinding)
	var recChain core.OSInterface = reconcile.RecordOS(audited, w.state, ident, func(tid int) string { return entityOf[tid] })
	if tr != nil {
		if recChain, err = wrapOS(recChain, &tr.record); err != nil {
			return w, err
		}
	}

	w.mw = core.NewMiddleware(nil)
	w.mw.SetAudit(w.trail)
	gate := core.NewDriverGate()
	w.mw.SetWriteGate(gate)
	w.ctl.SetTelemetry(w.mw.Telemetry())
	spans := span.New(span.Config{Process: "lachesisd"})
	w.mw.SetSpans(spans)
	w.mw.SetSpanFloor(core.DefaultSpanFloor)
	w.mw.SetSpanBudget(core.DefaultSpanBudget)

	var guards []*guard.OpGuard
	w.canary = guard.NewCanary(guard.Config{})
	w.canary.SetTelemetry(w.mw.Telemetry())
	w.canary.SetAudit(w.trail)
	w.canary.SetSpans(spans)
	w.canary.SetProvider(w.mw.Provider())
	w.canary.SetPolicyStore(w.store)
	w.canary.SetViolationSource(func() int64 {
		var n int64
		for _, g := range guards {
			n += g.Violations()
		}
		return n
	})

	w.metrics = metrics.NewStore(ctlPeriod)
	var src driver.Source = w.metrics
	var sink spe.MetricSink = w.metrics
	if tr != nil {
		src = &timedSource{inner: w.metrics, t: &tr.latest}
		sink = &timedSink{inner: w.metrics, t: &tr.record2}
	}

	for b := 0; b < ctlBindings; b++ {
		cb := ctlBinding{query: fmt.Sprintf("q%03d", b)}
		cb.group = "query-" + cb.query
		for j := 0; j < ctlOpsPerBinding; j++ {
			tid := w.h.tids[b*ctlOpsPerBinding+j]
			name := fmt.Sprintf("%s.op%d", cb.query, j)
			cb.ents = append(cb.ents, core.Entity{
				Name: name, Driver: cb.query, Query: cb.query, Thread: tid,
				Logical: []string{fmt.Sprintf("op%d", j)},
			})
			entityOf[tid] = name
		}
		w.bindings = append(w.bindings, cb)

		var drv core.Driver = newStoreDriver(cb.query, cb.ents, src)
		co := core.NewCoalescer(recChain, nil)
		co.SetTelemetry(w.mw.Telemetry(), "static")
		w.coals = append(w.coals, co)
		var coHop core.OSInterface = co
		if tr != nil {
			drv = &timedDriver{inner: drv, t: &tr.fetch, log: &tr.log}
			if coHop, err = wrapOS(co, &tr.coal); err != nil {
				return w, err
			}
		}
		og := guard.NewOpGuard(coHop, guard.Invariants{})
		og.SetTelemetry(w.mw.Telemetry(), "configured")
		og.SetAudit(w.trail)
		guards = append(guards, og)
		var gHop core.OSInterface = og
		if tr != nil {
			if gHop, err = wrapOS(og, &tr.guard); err != nil {
				return w, err
			}
		}
		ct := core.NewCombinedTranslator(gHop, 0, 0)
		ct.ObserveClamps(core.ClampRecorder(w.mw.Telemetry(), w.trail, "configured"))
		var translator core.Translator = ct
		var pol core.Policy = w.canary.Slot(core.GroupPerQuery(core.NewQSPolicy()))
		if tr != nil {
			t, err := newTimedTranslator(ct, &tr.translate)
			if err != nil {
				return w, err
			}
			tr.translators = append(tr.translators, t.(*timedTranslator))
			translator = t
			if pol, err = newTimedPolicy(pol, &tr.sched, &tr.log); err != nil {
				return w, err
			}
		}
		if b == 0 {
			w.boundaries = append(w.boundaries, drv, pol, translator, gHop, coHop)
		}
		if err := w.mw.Bind(core.Binding{
			Policy:     pol,
			Translator: translator,
			Drivers:    []core.Driver{drv},
			Coalescer:  co,
			Period:     ctlPeriod,
			Guard:      gHop.(core.ApplyGuard),
		}); err != nil {
			return w, err
		}
	}

	// The traced backend hop decorates the observer methods as well, so
	// the reconciler reads through the same value it writes through.
	obs := backend.(core.Observer)
	w.boundaries = append(w.boundaries, recChain, audited, backend, obs, src, sink)
	w.rec = reconcile.New(reconcile.Config{
		// With one coalescer per binding, repairs enter the shared chain
		// below the coalescers; their mirrors already hold the desired
		// value the repair restores.
		OS:        gate.ExclusiveOS(recChain),
		Observer:  obs,
		State:     w.state,
		Audit:     w.trail,
		Telemetry: w.mw.Telemetry(),
		Now:       func() time.Duration { return w.now },
		Spans:     spans,
	})
	w.gen = startGenerator(seed, churn, w.bindings, sink)

	// Warm-up: the first cycle creates every cgroup, places every thread
	// and writes every value; the second runs the steady state once; a
	// reconcile pass warms the read side.
	for i := 0; i < 2; i++ {
		w.advance()
		if _, _, err := w.step(); err != nil {
			return w, fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	w.rec.Reconcile()
	return w, nil
}

// advance starts the next period: virtual time moves one period and the
// generator publishes the period's samples.
func (w *controlWorld) advance() {
	w.cycle++
	w.now = time.Duration(w.cycle) * ctlPeriod
	w.gen.fill(w.now)
}

// step runs one Middleware.Step and the canary tick, as the daemon's loop
// does, and returns the step's wall time.
func (w *controlWorld) step() (core.StepStats, time.Duration, error) {
	s := time.Now()
	stats, err := w.mw.Step(w.now)
	wall := time.Since(s)
	if w.tr != nil {
		t0 := time.Now()
		w.canary.Tick(w.now)
		w.tr.canary.observe(t0, nil)
	} else {
		w.canary.Tick(w.now)
	}
	return stats, wall, err
}

// reconcileDue runs the adversary (control-churn) and a reconciler pass
// when the interval has elapsed, returning the pass result and wall time.
func (w *controlWorld) reconcileDue() (reconcile.PassResult, time.Duration, bool, error) {
	if w.cycle%reconcileEvery != 0 {
		return reconcile.PassResult{}, 0, false, nil
	}
	var err error
	if w.churn {
		err = w.perturb()
	}
	s := time.Now()
	res := w.rec.Reconcile()
	return res, time.Since(s), true, err
}

// perturb is the adversary: before each pass it renices a seeded sixteenth
// of the threads, rewrites the shares of a seeded thirty-second of the
// cgroups and moves a seeded 1/128 of the threads out of their cgroup,
// all through raw syscalls and cgroupfs writes the chain never sees.
func (w *controlWorld) perturb() error {
	var errs []error
	for _, b := range w.bindings {
		for _, e := range b.ents {
			if w.adv.Intn(16) == 0 {
				cur, _ := w.state.Nice(e.Thread)
				v := cur.Value + 5
				if v > 19 {
					v = cur.Value - 5
				}
				errs = append(errs, syscall.Setpriority(syscall.PRIO_PROCESS, e.Thread, v))
			}
			if w.adv.Intn(128) == 0 {
				errs = append(errs, writeInt(filepath.Join(w.h.subtree, "tasks"), e.Thread))
			}
		}
		if w.adv.Intn(32) == 0 {
			cur, _ := w.state.Shares(b.group)
			errs = append(errs, writeInt(filepath.Join(w.h.cgroupRoot(), b.group, "cpu.shares"), cur.Value+100))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("adversary: %w", err)
	}
	return nil
}

// teardown stops the generator, restores the host and removes the
// state directory. Safe on a partly built world.
func (w *controlWorld) teardown() error {
	var errs []error
	if w.gen != nil {
		w.gen.stop()
	}
	if w.store != nil {
		errs = append(errs, w.store.Close())
	}
	if w.h != nil {
		errs = append(errs, w.h.teardown())
	}
	if w.stateDir != "" {
		errs = append(errs, os.RemoveAll(w.stateDir))
	}
	return errors.Join(errs...)
}

// osCounter reads one oslinux telemetry counter of the world.
func (w *controlWorld) osCounter(name string, labels ...telemetry.Label) int64 {
	return w.mw.Telemetry().Counter(name, labels...).Value()
}

// writeOps is how many control writes reached the kernel so far.
func (w *controlWorld) writeOps() int64 {
	var n int64
	for _, op := range []string{"nice", "ensure_cgroup", "shares", "move", "remove_cgroup", "restore"} {
		n += w.osCounter(oslinux.MetricOSOps, telemetry.L("op", op))
	}
	return n
}

// failedOps is how many kernel operations failed or hit a vanished
// target (the benchmark's threads and cgroups never vanish).
func (w *controlWorld) failedOps() int64 {
	return w.osCounter(oslinux.MetricOSErrors) + w.osCounter(oslinux.MetricOSVanished)
}

// coalesced sums the coalescers' suppressed and issued counts.
func (w *controlWorld) coalesced() (suppressed, issued int64) {
	for _, c := range w.coals {
		suppressed += c.Suppressed()
		issued += c.Issued()
	}
	return suppressed, issued
}

// verify reads every thread's nice and placement and every cgroup's
// shares back from the kernel and compares them with the desired state,
// the audit replay and a sequential baseline computed from the same
// inputs. It returns how many checks ran and adds each mismatch to out.
func (w *controlWorld) verify(out *outcome) (int64, error) {
	base, err := sequentialBaseline(w.metrics, w.bindings, w.now)
	if err != nil {
		return 0, err
	}
	replayNice, replayShares := w.replay.final()
	var checks int64
	for _, b := range w.bindings {
		for _, e := range b.ents {
			checks += 2
			kernel, err := w.ctl.ObserveNice(e.Thread)
			desired, ok := w.state.Nice(e.Thread)
			if err != nil || !ok || kernel != desired.Value || kernel != replayNice[e.Thread] || kernel != base.nice[e.Thread] {
				out.fail("nice of %s (tid %d): kernel %d (err %v), desired %d (known %v), audit replay %d, sequential baseline %d",
					e.Name, e.Thread, kernel, err, desired.Value, ok, replayNice[e.Thread], base.nice[e.Thread])
			}
			in, err := w.ctl.InCgroup(e.Thread, b.group)
			if err != nil || !in || base.placed[e.Thread] != b.group {
				out.fail("placement of %s: in %s %v (err %v), baseline %q", e.Name, b.group, in, err, base.placed[e.Thread])
			}
		}
		checks++
		kernel, err := w.ctl.ObserveShares(b.group)
		desired, ok := w.state.Shares(b.group)
		if err != nil || !ok || kernel != desired.Value || kernel != replayShares[b.group] || kernel != base.shares[b.group] {
			out.fail("shares of %s: kernel %d (err %v), desired %d (known %v), audit replay %d, sequential baseline %d",
				b.group, kernel, err, desired.Value, ok, replayShares[b.group], base.shares[b.group])
		}
	}
	if err := w.state.Err(); err != nil {
		out.fail("desired-state persistence: %v", err)
	}
	return checks, nil
}

// --- inputs ---

// storeDriver exposes one binding's operators and reads their queue_size
// series from the shared metric store, as a Storm driver reads Graphite.
type storeDriver struct {
	name   string
	ents   []core.Entity
	series []string
	src    driver.Source
}

func newStoreDriver(name string, ents []core.Entity, src driver.Source) *storeDriver {
	d := &storeDriver{name: name, ents: ents, src: src}
	for _, e := range ents {
		d.series = append(d.series, seriesName(e.Name))
	}
	return d
}

func seriesName(entity string) string { return entity + "." + core.MetricQueueSize }

func (d *storeDriver) Name() string                { return d.name }
func (d *storeDriver) Entities() []core.Entity     { return d.ents }
func (d *storeDriver) Provides(metric string) bool { return metric == core.MetricQueueSize }
func (d *storeDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	if metric != core.MetricQueueSize {
		return nil, &core.UnknownMetricError{Metric: metric, Driver: d.name}
	}
	out := make(core.EntityValues, len(d.ents))
	for i, e := range d.ents {
		if p, ok := d.src.Latest(d.series[i]); ok {
			out[e.Name] = p.Value
		}
	}
	return out, nil
}

// generator is the single goroutine that publishes every operator's
// queue_size sample once per period.
type generator struct {
	seed     int64
	churn    bool
	series   [][]string
	base     [][]float64
	sink     spe.MetricSink
	req      chan time.Duration
	done     chan struct{}
	finished sync.WaitGroup
}

func startGenerator(seed int64, churn bool, bindings []ctlBinding, sink spe.MetricSink) *generator {
	g := &generator{seed: seed, churn: churn, sink: sink, req: make(chan time.Duration), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	for _, b := range bindings {
		var names []string
		var vals []float64
		for j, e := range b.ents {
			names = append(names, seriesName(e.Name))
			// Distinct per operator, so QS orders them the same way
			// every period until something changes.
			vals = append(vals, float64(20*(j+1))+rng.Float64()*10)
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		g.series = append(g.series, names)
		g.base = append(g.base, vals)
	}
	g.finished.Add(1)
	go func() {
		defer g.finished.Done()
		for t := range g.req {
			g.publish(t)
			g.done <- struct{}{}
		}
	}()
	return g
}

// fill publishes the samples of virtual time t and waits until they are
// in the store.
func (g *generator) fill(t time.Duration) {
	g.req <- t
	<-g.done
}

func (g *generator) stop() {
	close(g.req)
	g.finished.Wait()
}

// publish writes one period. control-churn rotates every binding's
// values by one operator per period; control-steady keeps them fixed
// except for a seeded one binding in sixteen that bursts for a period.
func (g *generator) publish(t time.Duration) {
	c := int(t / ctlPeriod)
	for b, names := range g.series {
		vals := g.base[b]
		burst := !g.churn && mix(g.seed, int64(b), int64(c))%16 == 0
		for j, name := range names {
			v := vals[j]
			if g.churn {
				v = vals[(j+c)%len(vals)]
			} else if burst && j == c%len(vals) {
				v = v*8 + 100
			}
			g.sink.Record(t, name, v)
		}
	}
}

// mix hashes three integers (splitmix64 finalizer).
func mix(a, b, c int64) uint64 {
	z := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xBF58476D1CE4E5B9 ^ uint64(c)*0x94D049BB133111EB
	z ^= z >> 31
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return z
}

// --- checks ---

// replaySink keeps the last successful nice and shares audit event per
// target, which is all core.ReplayNice needs to fold the final state.
type replaySink struct {
	mu     sync.Mutex
	nice   map[int]core.AuditEvent
	shares map[string]int
}

func newReplaySink() *replaySink {
	return &replaySink{nice: make(map[int]core.AuditEvent), shares: make(map[string]int)}
}

func (s *replaySink) Emit(e core.AuditEvent) {
	if e.Outcome != core.AuditOutcomeOK {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.Kind == core.AuditKindNice && e.NewNice != nil:
		s.nice[e.Thread] = e
	case e.Kind == core.AuditKindShares && e.NewShares != nil:
		s.shares[e.Cgroup] = *e.NewShares
	}
}

func (s *replaySink) final() (map[int]int, map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	events := make([]core.AuditEvent, 0, len(s.nice))
	for _, e := range s.nice {
		events = append(events, e)
	}
	shares := make(map[string]int, len(s.shares))
	for k, v := range s.shares {
		shares[k] = v
	}
	return core.ReplayNice(events), shares
}

// memOS is the sequential baseline's in-memory kernel.
type memOS struct {
	nice   map[int]int
	shares map[string]int
	placed map[int]string
}

func (m *memOS) SetNice(tid, nice int) error             { m.nice[tid] = nice; return nil }
func (m *memOS) EnsureCgroup(string) error               { return nil }
func (m *memOS) SetShares(name string, shares int) error { m.shares[name] = shares; return nil }
func (m *memOS) MoveThread(tid int, name string) error   { m.placed[tid] = name; return nil }

// sequentialBaseline computes the final state a fresh, fully sequential
// middleware (Parallelism{Disabled: true}) decides from the inputs the
// measured chain saw last.
func sequentialBaseline(store *metrics.Store, bindings []ctlBinding, now time.Duration) (*memOS, error) {
	mem := &memOS{nice: map[int]int{}, shares: map[string]int{}, placed: map[int]string{}}
	mw := core.NewMiddleware(nil)
	mw.SetParallelism(core.Parallelism{Disabled: true})
	for _, b := range bindings {
		if err := mw.Bind(core.Binding{
			Policy:     core.GroupPerQuery(core.NewQSPolicy()),
			Translator: core.NewCombinedTranslator(mem, 0, 0),
			Drivers:    []core.Driver{newStoreDriver(b.query, b.ents, store)},
			Period:     ctlPeriod,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := mw.Step(now); err != nil {
		return nil, fmt.Errorf("sequential baseline: %w", err)
	}
	return mem, nil
}

// --- the workload ---

// ctlPhase is what one measured phase of a control world recorded.
type ctlPhase struct {
	walls      []float64 // ms per Middleware.Step
	cpus       []float64 // process CPU ms per Middleware.Step
	decided    int64
	stepWall   time.Duration
	passes     []float64 // ms per reconciler pass
	repaired   int
	logAppends int64
	other      []float64 // ms of each step outside fetch, schedule and apply
	problems   []error
	// Kernel writes and coalescer outcomes during the phase.
	writes, suppressed, issued int64
	// Traced runs only: the binding apply brackets and the time the
	// recording hop spent inside steps.
	applyBracket, recordInSteps time.Duration
}

// measure steps the world until the deadline, or for n cycles when n > 0.
func (w *controlWorld) measure(ctx context.Context, until time.Time, n int) (ph ctlPhase) {
	ops0 := w.writeOps()
	sup0, iss0 := w.coalesced()
	defer func() {
		ph.writes = w.writeOps() - ops0
		sup, iss := w.coalesced()
		ph.suppressed, ph.issued = sup-sup0, iss-iss0
	}()
	for i := 0; ctx.Err() == nil && (n > 0 && i < n || n == 0 && time.Now().Before(until)); i++ {
		w.advance()
		// The reconciler pass belongs to the period, not to the step.
		if res, d, ran, err := w.reconcileDue(); ran {
			ph.passes = append(ph.passes, ms(d))
			ph.repaired += res.Repaired
			if err != nil {
				ph.problems = append(ph.problems, err)
			}
		}
		var r0 time.Duration
		if w.tr != nil {
			r0 = w.tr.record.writeTotal()
		}
		v0 := w.state.Version()
		c0 := cpuTime()
		s0 := time.Now()
		stats, wall, err := w.step()
		ph.cpus = append(ph.cpus, ms(cpuTime()-c0))
		ph.logAppends += w.state.Version() - v0
		ph.walls = append(ph.walls, ms(wall))
		ph.stepWall += wall
		ph.decided += int64(stats.PoliciesRun)
		if err != nil {
			ph.problems = append(ph.problems, err)
		}
		if w.tr != nil {
			ph.recordInSteps += w.tr.record.writeTotal() - r0
			for i, b := range stats.Bindings {
				ph.applyBracket += b.Apply
				if st := w.tr.translators[i].start.Load(); st != 0 && b.Apply > 0 {
					a := time.Unix(0, st)
					w.tr.log.add(a, a.Add(b.Apply))
				}
			}
			ph.other = append(ph.other, ms(wall-w.tr.log.coveredAndReset(s0, s0.Add(wall))))
		}
	}
	return ph
}

func runControl(ctx context.Context, cfg runConfig, churn bool) (out *outcome, err error) {
	out = &outcome{layers: map[string]float64{}, notes: map[string]string{}}
	if cfg.trace {
		return out, runControlTraced(ctx, cfg, churn, out)
	}
	// setup_s is the CPU a set-up costs: the process's own, plus its
	// helper processes', which are known once teardown has reaped them
	// (their threads never run after start-up). Process CPU time does not
	// count host steal, fsync waits or other tenants' disk load, which
	// move the wall time (reported as setup_wall_s) by a factor of two.
	var setups, setupWalls []float64
	build := func() (*controlWorld, time.Duration, error) {
		c, s := cpuTime(), time.Now()
		w, err := buildControl(cfg.seed, churn, false)
		if err != nil {
			return nil, 0, fmt.Errorf("set up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(s).Seconds())
		return w, cpuTime() - c, nil
	}
	w, cpu, err := build()
	if err != nil {
		return nil, err
	}
	defer func() {
		if w != nil {
			err = errors.Join(err, w.teardown())
		}
	}()
	ops0, fail0 := w.writeOps(), w.failedOps()
	ph := w.measure(ctx, time.Now().Add(cfg.seconds), 0)
	if ctx.Err() != nil {
		return out, nil
	}
	if err := w.summarize(out, ph, ops0, fail0); err != nil {
		return nil, err
	}
	// The other set-ups come after the measured phase, so the kernel's
	// clean-up of their threads and cgroups does not overlap it.
	for {
		fw := w
		w = nil
		if err := fw.teardown(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		setups = append(setups, (cpu + fw.h.helperCPU()).Seconds())
		if len(setups) == ctlSetups || ctx.Err() != nil {
			break
		}
		if w, cpu, err = build(); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return out, nil
	}
	out.setEndToEnd(median(setups), median(setupWalls), median(ph.cpus), ph.walls, "steps", "bindings_per_s", float64(ph.decided)/ph.stepWall.Seconds())
	return out, nil
}

// summarize runs the output checks and fills the counts and the report
// shared by the untraced and traced runs. ops0 and fail0 are the kernel
// write and failure counts before the measured phases.
func (w *controlWorld) summarize(out *outcome, ph ctlPhase, ops0, fail0 int64) error {
	for _, p := range ph.problems {
		out.fail("%v", p)
	}
	checks, err := w.verify(out)
	if err != nil {
		return err
	}
	for i := w.failedOps() - fail0; i > 0; i-- {
		out.fail("kernel control operation failed")
	}
	// Each step and each read-back check is attempted work too, so a run
	// whose writes are all suppressed still attempts something.
	out.attempted = w.writeOps() - ops0 + checks + int64(len(ph.walls))
	n := float64(len(ph.walls))
	out.add("cycles", n, "count")
	out.add("kernel_writes_per_cycle", float64(ph.writes)/n, "count")
	out.add("coalesce_suppressed_ratio", ratio(float64(ph.suppressed), float64(ph.suppressed+ph.issued)), "ratio")
	out.add("reconcile_pass_ms", median(ph.passes), "ms")
	out.add("reconcile_passes", float64(len(ph.passes)), "count")
	out.add("reconcile_repaired", float64(ph.repaired), "count")
	out.add("readback_checks", float64(checks), "count")
	return nil
}

// runControlTraced measures an untraced world and then a traced one for
// half the run each (their p50 ratio is the tracing overhead), times
// seqCycles sequential cycles on the traced world and derives the
// per-layer metrics from its decorators.
func runControlTraced(ctx context.Context, cfg runConfig, churn bool, out *outcome) (err error) {
	half := cfg.seconds / 2
	plain, err := buildControl(cfg.seed, churn, false)
	if err != nil {
		return fmt.Errorf("set up: %w", err)
	}
	base := plain.measure(ctx, time.Now().Add(half), 0)
	if err := plain.teardown(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	if ctx.Err() != nil {
		return nil
	}
	w, err := buildControl(cfg.seed, churn, true)
	if err != nil {
		return fmt.Errorf("set up traced: %w", err)
	}
	defer func() { err = errors.Join(err, w.teardown()) }()
	tr := w.tr
	ops0, fail0 := w.writeOps(), w.failedOps()
	snap := snapshotCtl(tr)
	ph := w.measure(ctx, time.Now().Add(half), 0)
	d := snapshotCtl(tr).minus(snap)
	w.mw.SetParallelism(core.Parallelism{Disabled: true})
	seq := w.measure(ctx, time.Time{}, seqCycles)
	w.mw.SetParallelism(core.DefaultParallelism())
	if ctx.Err() != nil {
		return nil
	}
	ph.problems = append(ph.problems, seq.problems...)
	if err := w.summarize(out, ph, ops0, fail0); err != nil {
		return err
	}

	n := float64(len(ph.walls))
	perBinding := n * ctlBindings
	L := out.layers
	L["core.fetch_us_per_binding"] = us(d.fetch) / perBinding
	L["core.schedule_us_per_binding"] = us(d.sched) / perBinding
	L["core.cycle_other_ms"] = median(ph.other)
	L["core.seq_cycle_ms"] = median(seq.walls)
	L["core.translate_us_per_binding"] = us(d.translate-d.guardWrites) / perBinding
	// The flush is the rest of each binding's apply bracket. The ops the
	// guard forwarded into the coalescer's batch were timed inside its
	// FinishApply, and the recording hop's time is the chain below.
	flush := ph.applyBracket - d.translate - d.guardFinish + d.coalWrites - ph.recordInSteps
	L["core.coalesce_us_per_op"] = us(flush) / float64(max(d.coalCalls, 1))
	L["core.coalesce_suppressed_ratio"] = ratio(float64(ph.suppressed), float64(ph.suppressed+ph.issued))
	L["core.coalesce_ops"] = float64(ph.suppressed + ph.issued)
	L["core.audit_us_per_op"] = us(tr.audit.writeTotal()-tr.os.writeTotal()) / float64(max(tr.audit.writeCalls(), 1))
	L["guard.check_us_per_batch"] = us(d.guardFinish-d.coalWrites) / float64(max(d.guardBatches, 1))
	L["guard.canary_tick_us"] = tr.canary.avgUS()
	L["reconcile.record_us_per_op"] = us(tr.record.writeTotal()-tr.audit.writeTotal()) / float64(max(tr.record.writeCalls(), 1))
	L["reconcile.log_appends_per_cycle"] = float64(ph.logAppends) / n
	L["reconcile.pass_ms"] = median(ph.passes)
	L["reconcile.repaired_per_pass"] = ratio(float64(ph.repaired), float64(len(ph.passes)))
	L["oslinux.nice_us"] = tr.os.nice.avgUS()
	L["oslinux.shares_us"] = tr.os.shares.avgUS()
	L["oslinux.move_us"] = tr.os.move.avgUS()
	L["oslinux.identity_us"] = tr.ident.avgUS()
	L["oslinux.observe_us"] = tr.os.observe.avgUS()
	L["oslinux.failed_ops"] = float64(tr.os.writeErrs())
	L["metrics.latest_us"] = tr.latest.avgUS()
	L["metrics.record_us"] = tr.record2.avgUS()
	L["trace.overhead_ratio"] = ratio(median(ph.walls), median(base.walls))
	out.add("untraced_cycle_p50_ms", median(base.walls), "ms")
	out.add("traced_cycle_p50_ms", median(ph.walls), "ms")
	return nil
}

// ctlSnap is a copy of the traced world's cumulative timers.
type ctlSnap struct {
	fetch, sched, translate, guardWrites, guardFinish time.Duration
	coalWrites                                        time.Duration
	coalCalls, guardBatches                           int64
}

func snapshotCtl(tr *ctlTracer) ctlSnap {
	return ctlSnap{
		fetch:        tr.fetch.total(),
		sched:        tr.sched.total(),
		translate:    tr.translate.total(),
		guardWrites:  tr.guard.writeTotal(),
		guardFinish:  tr.guard.finish.total(),
		coalWrites:   tr.coal.writeTotal(),
		coalCalls:    tr.coal.writeCalls(),
		guardBatches: tr.guard.finish.calls.Load(),
	}
}

func (s ctlSnap) minus(o ctlSnap) ctlSnap {
	return ctlSnap{
		fetch: s.fetch - o.fetch, sched: s.sched - o.sched, translate: s.translate - o.translate,
		guardWrites: s.guardWrites - o.guardWrites, guardFinish: s.guardFinish - o.guardFinish,
		coalWrites: s.coalWrites - o.coalWrites,
		coalCalls:  s.coalCalls - o.coalCalls, guardBatches: s.guardBatches - o.guardBatches,
	}
}
