package core

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"lachesis/internal/span"
)

// ErrFetchTimeout reports that a driver's metric fetch exceeded
// Parallelism.FetchTimeout and was abandoned. The fetch goroutine keeps
// running until the driver returns; the provider's per-driver in-flight
// lock keeps the abandoned fetch from racing the next cycle's.
var ErrFetchTimeout = errors.New("core: metric fetch timeout")

// Default worker-pool sizes. Fetches are IO-bound on a real deployment
// (each is a monitoring-API round trip), so the pool is wider than any
// sensible core count; applies are syscall-bound, where eight in flight
// saturates the control path long before it saturates a machine.
const (
	DefaultFetchWorkers = 8
	DefaultApplyWorkers = 8
)

// Parallelism configures the decision cycle's parallel pipeline: a
// bounded worker pool for per-driver metric fetches (with an optional
// per-driver timeout) and a bounded pool for per-binding policy
// evaluation + translator applies.
//
// Parallel fetch engages whenever more than one driver is due. Parallel
// apply additionally requires a DriverGate (SetWriteGate): without
// per-driver write locks the middleware cannot order semantically
// conflicting writes, so it falls back to sequential applies rather than
// guess. Either way the observable outcome of a step — schedules chosen,
// control ops issued, stats order — is the same as the sequential path;
// only wall-clock time and event interleaving differ.
type Parallelism struct {
	// Disabled reverts the whole cycle to the sequential legacy path
	// (the baseline the scale experiment measures against).
	Disabled bool
	// FetchWorkers bounds concurrent driver fetches (default
	// DefaultFetchWorkers).
	FetchWorkers int
	// FetchTimeout abandons a driver fetch that takes longer (0 = no
	// timeout). An abandoned driver counts as failed this cycle and its
	// bindings fall back to last-good values within the staleness bound.
	FetchTimeout time.Duration
	// ApplyWorkers bounds concurrent binding applies (default
	// DefaultApplyWorkers).
	ApplyWorkers int
}

// DefaultParallelism returns the default pipeline configuration.
func DefaultParallelism() Parallelism {
	return Parallelism{FetchWorkers: DefaultFetchWorkers, ApplyWorkers: DefaultApplyWorkers}
}

func (p Parallelism) withDefaults() Parallelism {
	if p.Disabled {
		return p
	}
	if p.FetchWorkers <= 0 {
		p.FetchWorkers = DefaultFetchWorkers
	}
	if p.ApplyWorkers <= 0 {
		p.ApplyWorkers = DefaultApplyWorkers
	}
	return p
}

// SetParallelism replaces the pipeline configuration. Zero fields are
// filled with defaults; Parallelism{Disabled: true} restores the fully
// sequential cycle.
func (m *Middleware) SetParallelism(p Parallelism) { m.par = p.withDefaults() }

// ParallelismConfig returns the active pipeline configuration.
func (m *Middleware) ParallelismConfig() Parallelism { return m.par }

// SetWriteGate installs the per-driver write gate that makes parallel
// binding applies safe: each apply worker locks its binding's drivers, so
// bindings over disjoint SPEs proceed concurrently while bindings sharing
// a driver — and therefore possibly threads and cgroups — serialize.
// Whole-chain writers (the reconciler, shutdown resets) use
// gate.ExclusiveOS. nil removes the gate and disables parallel applies.
func (m *Middleware) SetWriteGate(g *DriverGate) { m.gate = g }

// WriteGate returns the installed per-driver write gate (nil when apply
// parallelism is off).
func (m *Middleware) WriteGate() *DriverGate { return m.gate }

// sameInstance reports whether two interface values hold the same
// underlying instance. Non-comparable dynamic types report false instead
// of panicking.
func sameInstance(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// fetchOut is one driver's raw fetch result before bookkeeping.
type fetchOut struct {
	vals map[string]EntityValues
	err  error
	took time.Duration
}

// fetchOne updates one driver through the provider, abandoning the fetch
// after the configured timeout.
func (m *Middleware) fetchOne(now time.Duration, d Driver) (map[string]EntityValues, error) {
	timeout := m.par.FetchTimeout
	if timeout <= 0 {
		// An installed watchdog bounds fetches even when no explicit
		// fetch timeout is configured.
		timeout = m.phaseDeadline(PhaseFetch)
	}
	if m.par.Disabled || timeout <= 0 {
		return m.provider.UpdateOne(now, d)
	}
	done := make(chan fetchOut, 1)
	go func() {
		vals, err := m.provider.UpdateOne(now, d)
		done <- fetchOut{vals: vals, err: err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.vals, r.err
	case <-timer.C:
		if m.watchdog != nil {
			m.watchdog.PhaseOverrun(d.Name(), PhaseFetch, timeout)
		}
		return nil, fmt.Errorf("driver %s: %w after %v", d.Name(), ErrFetchTimeout, timeout)
	}
}

// fetchPhase updates every distinct driver of the runnable bindings —
// concurrently through the bounded worker pool unless parallelism is
// disabled or there is only one driver — then folds the results into
// driver state, telemetry, and stats in deterministic driver order.
// It returns the merged values and the set of drivers unusable this cycle.
func (m *Middleware) fetchPhase(now time.Duration, runnable []*boundPolicy, stats *StepStats, errs *[]error) (Values, map[string]error) {
	sc := &m.scratch
	drivers := m.distinctDriversScratch(runnable)
	if cap(sc.results) < len(drivers) {
		sc.results = make([]fetchOut, len(drivers))
	}
	results := sc.results[:len(drivers)]

	workers := m.par.FetchWorkers
	if workers > len(drivers) {
		workers = len(drivers)
	}
	if m.par.Disabled || workers <= 1 {
		for i, d := range drivers {
			results[i] = m.tracedFetch(now, d)
		}
	} else {
		// Fetches are latency-bound round trips: dispatch one driver per
		// job so a slow driver never serializes behind a fast one in the
		// same chunk.
		sc.now = now
		m.bindPhaseJobs()
		m.phasePool().run(workers, len(drivers), 1, m.fetchFn)
	}

	// Bookkeeping stays on the stepping goroutine, in driver order, so
	// stats, health state, and audit events are deterministic regardless
	// of fetch completion order.
	if sc.values == nil {
		sc.values = make(Values)
		sc.unavail = make(map[string]error)
	}
	clear(sc.values)
	clear(sc.unavail)
	values := sc.values
	unavailable := sc.unavail
	for i, d := range drivers {
		name := d.Name()
		ds := m.driverState(name)
		r := results[i]
		dst := DriverStepStats{Driver: name, Fetch: r.took}
		ds.hFetch.Observe(r.took)
		if r.err == nil {
			ds.fails = 0
			ds.lastErr = nil
			ds.stale = false
			ds.lastSuccess = now
			ds.haveSuccess = true
			ds.keepLastGood(r.vals)
			ds.lastGoodAt = now
			values[name] = ds.lastGood
			stats.Drivers = append(stats.Drivers, dst)
			continue
		}
		ds.fails++
		ds.lastErr = r.err
		ds.ctrFailures.Inc()
		dst.Err = r.err.Error()
		*errs = append(*errs, fmt.Errorf("driver %s: %w", name, r.err))
		if ds.lastGood != nil && now-ds.lastGoodAt <= m.res.StalenessBound {
			// Last-good fallback: schedule on slightly stale metrics
			// rather than not at all.
			ds.stale = true
			ds.ctrStale.Inc()
			dst.Stale = true
			values[name] = ds.lastGood
			m.auditRecord(AuditEvent{
				At: now, Kind: AuditKindDriver, Driver: name,
				Outcome: "stale-fallback: " + r.err.Error(),
			})
		} else {
			ds.stale = false
			unavailable[name] = r.err
			m.auditRecord(AuditEvent{
				At: now, Kind: AuditKindDriver, Driver: name, Outcome: r.err.Error(),
			})
		}
		stats.Drivers = append(stats.Drivers, dst)
	}
	return values, unavailable
}

// keepLastGood copies a successful fetch's per-metric values into
// ds.lastGood, reusing its map. The per-entity maps are shared; the
// provider never writes them (see Driver.Fetch for the driver's side).
func (ds *driverState) keepLastGood(vals map[string]EntityValues) {
	if ds.lastGood == nil {
		ds.lastGood = make(map[string]EntityValues, len(vals))
	}
	clear(ds.lastGood)
	maps.Copy(ds.lastGood, vals)
}

// fetchJob is the fetch phase's pool job: update driver i of the cycle's
// distinct-driver scratch. Bound once as m.fetchFn (see bindPhaseJobs).
func (m *Middleware) fetchJob(i int) {
	m.scratch.results[i] = m.tracedFetch(m.scratch.now, m.scratch.drivers[i])
}

// applyJob is the apply phase's pool job: run binding i of the cycle's
// toRun scratch under its driver locks. Bound once as m.applyFn.
func (m *Middleware) applyJob(i int) {
	sc := &m.scratch
	bp := sc.toRun[i]
	if m.gate != nil {
		ls := bp.lockSetFor(m.gate)
		ls.Lock()
		defer ls.Unlock()
	}
	if sc.applyParallel && bp.execMu != nil {
		// Bindings sharing a Policy or Translator instance (stateful:
		// rngs, previous-group maps) never run concurrently.
		bp.execMu.Lock()
		defer bp.execMu.Unlock()
	}
	sc.outcomes[i] = m.runBinding(sc.now, bp, sc.values)
}

// bindingOutcome is one binding's slice of the apply phase, produced by a
// worker and folded into stats on the stepping goroutine.
type bindingOutcome struct {
	bst  BindingStepStats
	errs []error
	// ran marks a completed policy run (successful or not) — the binding
	// produced a stats entry and counted toward PoliciesRun.
	ran      bool
	entities int
}

// applyPhase runs policy evaluation + translator apply for every runnable
// binding — concurrently through the bounded worker pool when a write
// gate is installed — and folds the outcomes into stats in binding order.
func (m *Middleware) applyPhase(now time.Duration, runnable []*boundPolicy, values Values, unavailable map[string]error, stats *StepStats, errs *[]error) {
	// Availability gating first (cheap, and recordFailure may reset a
	// binding through the OS chain, which must not interleave with apply
	// workers).
	sc := &m.scratch
	toRun := sc.toRun[:0]
	for _, bp := range runnable {
		blocked := sc.blocked[:0]
		available := false
		for _, d := range bp.Drivers {
			if err, bad := unavailable[d.Name()]; bad {
				blocked = append(blocked, err)
			} else {
				available = true
			}
		}
		sc.blocked = blocked
		if !available {
			// Every driver of this binding is down past the staleness
			// bound: the binding cannot run this period.
			m.recordFailure(bp, now, fmt.Errorf("binding %s/%s: no usable drivers: %w",
				bp.policyName, bp.translatorName, errors.Join(blocked...)))
			continue
		}
		toRun = append(toRun, bp)
	}

	sc.toRun = toRun
	if cap(sc.outcomes) < len(toRun) {
		sc.outcomes = make([]bindingOutcome, len(toRun))
	}
	outcomes := sc.outcomes[:len(toRun)]
	workers := m.par.ApplyWorkers
	if workers > len(toRun) {
		workers = len(toRun)
	}
	parallel := !m.par.Disabled && m.gate != nil && workers > 1

	sc.now = now
	sc.values = values
	if !parallel {
		sc.applyParallel = false
		for i := range toRun {
			m.applyJob(i)
		}
	} else {
		// Applies are CPU/syscall-bound and short: chunk indices so the
		// pool pays a channel handoff per chunk, not per binding.
		sc.applyParallel = true
		m.bindPhaseJobs()
		chunk := len(toRun) / (workers * 8)
		if chunk < 1 {
			chunk = 1
		}
		m.phasePool().run(workers, len(toRun), chunk, m.applyFn)
		sc.applyParallel = false
	}

	for _, out := range outcomes {
		if out.ran {
			if out.bst.Memoized {
				stats.Memoized++
			} else {
				stats.PoliciesRun++
			}
			stats.Entities += out.entities
		}
		stats.Bindings = append(stats.Bindings, out.bst)
		*errs = append(*errs, out.errs...)
	}
}

// runBinding executes one binding's schedule + apply and its breaker
// bookkeeping. In parallel mode it runs on a worker holding the binding's
// driver locks; everything it touches is either binding-local (bp),
// internally synchronized (telemetry, audit trail, the OS chain), or its
// own outcome slot.
func (m *Middleware) runBinding(now time.Duration, bp *boundPolicy, values Values) bindingOutcome {
	// Decision memo (memo.go): unchanged inputs since the last successful
	// apply mean the OS is already enforcing the desired schedule — skip
	// the cycle. The inflight guard still applies: a cancelled phase that
	// has not drained must be handled by the full path below.
	if bp.Memoize && bp.memoValid && !bp.inflight.Load() && m.memoHit(bp, values) {
		return m.memoSkip(bp, now)
	}
	out := bindingOutcome{}
	out.ran = true
	bst := BindingStepStats{
		Label:      bp.label,
		Policy:     bp.policyName,
		Translator: bp.translatorName,
	}
	// The binding span's identity (bctx) starts zero and is minted by the
	// first phase that emits; the span itself is recorded only on failure,
	// slowness, or when a child emitted (emitBinding) — healthy bindings
	// pay duration compares, no span allocations at all.
	var bctx span.Context
	b0 := m.nowFn()
	childEmitted := false
	if bp.inflight.Load() {
		// A previous deadline-cancelled phase is still executing; refuse
		// this run rather than pile a second execution on top of it. The
		// check must precede buildView: the view scratch is reused across
		// cycles and the abandoned goroutine is still reading it — only
		// the inflight handshake (cleared after the zombie drains) makes
		// rewriting it safe.
		err := fmt.Errorf("binding %s: %w", bp.label, ErrRunInFlight)
		m.ins.applyErrors.Inc()
		bst.Err = err.Error()
		out.bst = bst
		out.errs = append(out.errs, err)
		m.recordFailure(bp, now, err)
		m.emitBinding(bctx, now, bp.label, m.nowFn().Sub(b0), err, childEmitted)
		return out
	}
	view := m.buildView(now, bp, values)
	out.entities = len(view.Entities)
	bst.Entities = len(view.Entities)
	// One clock read per phase boundary: each phase ends where the next
	// begins.
	t0 := m.nowFn()
	sched, err := m.scheduleBounded(now, bp, view, m.phaseDeadline(PhaseSchedule))
	t1 := m.nowFn()
	bst.Schedule = t1.Sub(t0)
	if m.emitPhase(&bctx, now, "schedule", bst.Schedule, err) {
		childEmitted = true
	}
	bp.hSchedule.Observe(bst.Schedule)
	if err != nil {
		m.ins.applyErrors.Inc()
		err = fmt.Errorf("policy %s: %w", bp.policyName, err)
		bst.Err = err.Error()
		out.bst = bst
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindPolicyError, Policy: bst.Policy,
			Translator: bst.Translator, Outcome: err.Error(),
		})
		out.errs = append(out.errs, err)
		m.recordFailure(bp, now, err)
		m.emitBinding(bctx, now, bp.label, t1.Sub(b0), err, childEmitted)
		return out
	}
	done := m.auditApplyCtx(now, bp, view.Entities)
	if bp.Coalescer != nil {
		bp.Coalescer.Begin()
	}
	if bp.Guard != nil {
		bp.Guard.BeginApply(now, bp.label, view)
	}
	var aerr error
	// Apply deadlines require a guard: only its buffering makes the
	// cancellation safe (no op has reached the OS chain yet).
	if d := m.phaseDeadline(PhaseApply); d > 0 && bp.Guard != nil {
		aerr = m.applyBounded(now, bp, sched, view.Entities, d)
	} else {
		aerr = m.safeApply(bp.Translator, sched, view.Entities)
	}
	t2 := m.nowFn()
	if m.emitPhase(&bctx, now, "apply", t2.Sub(t1), aerr) {
		childEmitted = true
	}
	if bp.Guard != nil && !errors.Is(aerr, ErrPhaseDeadline) {
		gerr := bp.Guard.FinishApply()
		g := m.nowFn()
		if m.emitPhase(&bctx, now, "guard", g.Sub(t2), gerr) {
			childEmitted = true
		}
		t2 = g
		aerr = errors.Join(aerr, gerr)
	}
	if bp.Coalescer != nil {
		// After a timed-out or guard-blocked apply the coalescer batch is
		// empty (the guard released nothing), so Flush closes it without
		// kernel writes and the last-applied mirror stays in force.
		ferr := bp.Coalescer.Flush()
		f := m.nowFn()
		if m.emitPhase(&bctx, now, "flush", f.Sub(t2), ferr) {
			childEmitted = true
		}
		t2 = f
		aerr = errors.Join(aerr, ferr)
	}
	bst.Apply = t2.Sub(t1)
	done()
	bp.hApply.Observe(bst.Apply)
	m.auditRecord(AuditEvent{
		At: now, Kind: AuditKindApply, Policy: bst.Policy, Translator: bst.Translator,
		Entities: bst.Entities, Outcome: outcome(aerr),
	})
	if aerr != nil {
		m.ins.applyErrors.Inc()
		aerr = fmt.Errorf("translate %s/%s: %w", bp.policyName, bp.translatorName, aerr)
		bst.Err = aerr.Error()
		out.bst = bst
		out.errs = append(out.errs, aerr)
		m.recordFailure(bp, now, aerr)
		m.emitBinding(bctx, now, bp.label, t2.Sub(b0), aerr, childEmitted)
		return out
	}
	out.bst = bst
	m.emitBinding(bctx, now, bp.label, t2.Sub(b0), nil, childEmitted)
	m.ins.policyRuns.Inc()
	if bp.open {
		// Successful half-open probe: the breaker closes.
		bp.breakerCounter("closed").Inc()
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindBreaker, Policy: bst.Policy,
			Translator: bst.Translator, Outcome: "closed",
		})
	}
	bp.fails = 0
	bp.opens = 0
	bp.open = false
	bp.lastErr = nil
	bp.lastSuccess = now
	bp.haveSuccess = true
	// Copy, don't alias: view.Entities is per-cycle scratch cleared on the
	// binding's next run, while lastEntities must survive quarantine
	// resets that happen cycles later.
	if bp.lastEntities == nil {
		bp.lastEntities = make(map[string]Entity, len(view.Entities))
	}
	clear(bp.lastEntities)
	maps.Copy(bp.lastEntities, view.Entities)
	if bp.Memoize {
		m.memoStore(bp, values, len(view.Entities))
	}
	return out
}
