package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// Binding attaches one scheduling policy to a translator and a driver
// scope, with its own period — the user-facing configuration unit of
// Algorithm 1 (K policies, K translators).
type Binding struct {
	// Policy computes the schedule.
	Policy Policy
	// Translator enforces it through an OS mechanism.
	Translator Translator
	// Drivers is the scope: the SPE processes whose operators this policy
	// schedules. Multiple bindings may share drivers (e.g. one policy per
	// query filtered by Queries below).
	Drivers []Driver
	// Queries optionally restricts the scope to specific query names
	// (empty = all queries of the bound drivers).
	Queries []string
	// Period is the scheduling period (default one second, the paper's
	// Graphite-bound resolution).
	Period time.Duration
	// Coalescer optionally brackets this binding's translator applies
	// with a write-coalescing batch (Begin/Flush): redundant control ops
	// are suppressed against the desired-state mirror and survivors are
	// issued grouped per cgroup. One Coalescer per binding; sharing one
	// across bindings would interleave their batches.
	Coalescer *Coalescer
	// Guard optionally validates each translated batch against declared
	// invariants before it reaches the OS chain (see ApplyGuard and
	// internal/guard). The guard must be the same instance the binding's
	// Translator writes through, and sits above the Coalescer:
	// translator -> guard -> coalescer -> backend. One Guard per binding.
	Guard ApplyGuard
	// Memoize opts this binding into decision memoization: when every
	// bound driver's metric values and entity list are unchanged since
	// the binding's last successful apply, the whole
	// schedule -> translate -> apply pipeline is skipped for that cycle
	// (see memo.go). Only sound for value-deterministic policies — the
	// schedule must be a pure function of the view's entities and values
	// (no View.Now dependence, internal state, or randomness). Failures
	// and quarantine resets invalidate the memo, so probes and recovery
	// always run the full pipeline.
	Memoize bool
}

// DegradedAction selects what a binding does when its circuit breaker
// opens.
type DegradedAction int

const (
	// DegradedHold keeps the last applied schedule in place while the
	// binding is quarantined (the OS simply keeps enforcing stale
	// priorities — the default, matching how the paper's daemon degrades
	// to plain OS scheduling only by inaction).
	DegradedHold DegradedAction = iota
	// DegradedReset applies a neutral schedule (equal priorities) once
	// when the breaker opens, handing the quarantined entities back to
	// default OS scheduling instead of freezing a possibly-bad schedule.
	DegradedReset
)

// Resilience configures the middleware's failure handling: per-driver
// partial updates with last-good fallback, per-binding circuit breakers
// with exponential backoff, and panic isolation of user policies.
type Resilience struct {
	// Disabled reverts to the strict pre-hardening main loop: any driver
	// failure aborts the whole cycle, there is no breaker, no stale
	// fallback, and policy panics propagate. Used as the unhardened
	// baseline in the chaos experiment.
	Disabled bool
	// FailureThreshold is how many consecutive failures open a binding's
	// breaker (default 3).
	FailureThreshold int
	// BaseBackoff is the first quarantine interval (default: the
	// binding's period). Each consecutive re-opening doubles it.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 30s).
	MaxBackoff time.Duration
	// StalenessBound is how old a driver's last good metric values may be
	// and still be served in place of a failed fetch (default 10s).
	StalenessBound time.Duration
	// Degraded selects the action taken when a breaker opens.
	Degraded DegradedAction
}

// DefaultResilience returns the hardened default configuration.
func DefaultResilience() Resilience {
	return Resilience{
		FailureThreshold: 3,
		MaxBackoff:       30 * time.Second,
		StalenessBound:   10 * time.Second,
		Degraded:         DegradedHold,
	}
}

func (r Resilience) withDefaults() Resilience {
	if r.Disabled {
		return r
	}
	if r.FailureThreshold <= 0 {
		r.FailureThreshold = 3
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 30 * time.Second
	}
	if r.StalenessBound <= 0 {
		r.StalenessBound = 10 * time.Second
	}
	return r
}

// BindingState is a binding's health classification.
type BindingState int

const (
	// BindingHealthy: the last run succeeded.
	BindingHealthy BindingState = iota
	// BindingDegraded: recent failures, but the breaker is still closed.
	BindingDegraded
	// BindingQuarantined: the breaker is open; runs are suspended until
	// the next half-open probe.
	BindingQuarantined
)

// String implements fmt.Stringer.
func (s BindingState) String() string {
	switch s {
	case BindingHealthy:
		return "healthy"
	case BindingDegraded:
		return "degraded"
	case BindingQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("BindingState(%d)", int(s))
	}
}

// BindingHealth is one binding's slice of the Health snapshot.
type BindingHealth struct {
	Policy              string
	Translator          string
	State               BindingState
	ConsecutiveFailures int
	// LastSuccess is the virtual time of the last successful run (valid
	// when HasSucceeded).
	LastSuccess  time.Duration
	HasSucceeded bool
	// OpenUntil is when a quarantined binding next probes.
	OpenUntil time.Duration
	LastError string
}

// DriverHealth is one driver's slice of the Health snapshot.
type DriverHealth struct {
	Driver              string
	ConsecutiveFailures int
	LastSuccess         time.Duration
	HasSucceeded        bool
	// ServingStale marks a driver whose last fetch failed but whose
	// cached values are still within the staleness bound.
	ServingStale bool
	LastError    string
}

// Health is a point-in-time snapshot of the middleware's failure state,
// the observability surface of a long-running lachesisd.
type Health struct {
	Bindings []BindingHealth
	Drivers  []DriverHealth
}

// Healthy reports whether every binding and driver is failure-free.
func (h Health) Healthy() bool {
	for _, b := range h.Bindings {
		if b.State != BindingHealthy {
			return false
		}
	}
	for _, d := range h.Drivers {
		if d.ConsecutiveFailures > 0 {
			return false
		}
	}
	return true
}

// Middleware is Lachesis' main loop state (Algorithm 1): it periodically
// pulls metrics through the provider, runs each due policy, and applies
// the resulting schedules through the policies' translators. Failures are
// isolated per driver and per binding (see Resilience).
type Middleware struct {
	provider *Provider
	bindings []*boundPolicy
	res      Resilience
	par      Parallelism
	gate     *DriverGate
	drivers  map[string]*driverState

	// Self-telemetry: every middleware carries a registry; the lifetime
	// counters (policy runs, apply errors, panics) live in it so the
	// legacy accessors and the exported metrics cannot drift apart.
	tel      *telemetry.Registry
	ins      mwInstruments
	audit    *AuditTrail
	watchdog StepWatchdog
	// spans, when set, records a causal trace of every cycle (see
	// spans.go). cycleCtx is the current cycle span's propagation context:
	// written on the stepping goroutine before the phase workers spawn and
	// only read while they run.
	spans    *span.Recorder
	cycleCtx span.Context
	// spanFloor gates per-binding leaf phase spans (schedule, apply,
	// guard, flush): a phase emits its span only when it failed or took at
	// least this long. Zero emits everything (full-detail tracing).
	spanFloor time.Duration
	// spanBudget caps non-error spans per cycle (0 = unlimited) and
	// cycleSpans counts this cycle's emission attempts against it. The cap
	// bounds tracing's worst-case cost: a degraded cycle pushes every
	// phase over the slow-span floor at once, and emitting thousands of
	// spans exactly when the host is already squeezed is how a tracer
	// amplifies the outage it should be explaining.
	spanBudget int
	cycleSpans atomic.Int64
	// nowFn supplies wall-clock time for duration measurements (virtual
	// step time never measures the middleware's own cost). Tests may
	// replace it.
	nowFn func() time.Time

	// Hot-path machinery (hotpath.go): persistent phase worker pool,
	// per-cycle scratch buffers, and the pool job functions bound once so
	// dispatching a phase never allocates a closure.
	pool    *indexPool
	scratch stepScratch
	fetchFn func(int)
	applyFn func(int)
	// labelTaken caches the set of assigned binding labels, making Bind's
	// collision dedup O(1) amortized instead of a scan over all bindings
	// (which is quadratic when binding thousands of policies).
	labelTaken map[string]bool
	// labelNext is the per-base dedup-suffix cursor (see bindingLabel).
	labelNext map[string]int
}

type boundPolicy struct {
	Binding
	ticker  *Ticker
	queries map[string]bool
	label   string // "policy/translator", the telemetry binding label
	// policyName/translatorName cache Policy.Name()/Translator.Name() at
	// Bind time: stats assembly and audit attribution run every cycle and
	// must not call user code (whose Name may allocate) per step.
	policyName     string
	translatorName string
	// names caches the binding's driver names for the gate lock set.
	names []string
	// inPlace is non-nil when the policy supports allocation-free
	// in-place scheduling (see InPlaceScheduler in hotpath.go).
	inPlace InPlaceScheduler
	// execMu serializes bindings sharing a stateful Policy or Translator
	// instance in the parallel apply pool; bindings with private
	// instances each get their own (uncontended) mutex.
	execMu *sync.Mutex

	// Reusable per-binding cycle scratch (hotpath.go): the view's entity
	// and merged-metric maps, the in-place schedule buffers, and the
	// cached driver lock set for the current write gate.
	view         View
	viewEntities map[string]Entity
	viewMerged   map[string]EntityValues
	sched        Schedule
	lockGate     *DriverGate
	lockSet      *DriverLockSet

	// Circuit-breaker state.
	fails     int           // consecutive failures
	opens     int           // consecutive breaker openings (backoff exponent)
	open      bool          // breaker open (quarantined)
	openUntil time.Duration // next half-open probe time

	lastSuccess  time.Duration
	haveSuccess  bool
	lastErr      error
	lastEntities map[string]Entity // last successfully scheduled entities

	// Decision-memoization snapshot (memo.go): deep copies of the last
	// successfully applied inputs, per driver name. memoValid gates the
	// fast path and is cleared on any failure or quarantine reset.
	memoValid    bool
	memoVals     map[string]map[string]EntityValues
	memoEnts     map[string][]Entity
	memoEntities int

	// inflight marks a deadline-cancelled phase whose goroutine has not
	// returned yet; runs are refused until it drains (see guardhook.go).
	inflight atomic.Bool

	// Cached instruments (see instrument.go).
	tel            *telemetry.Registry
	hSchedule      *telemetry.Histogram
	hApply         *telemetry.Histogram
	ctrQuarantined *telemetry.Counter
}

// driverState tracks one driver's fetch health and last good values.
type driverState struct {
	fails       int
	lastSuccess time.Duration
	haveSuccess bool
	lastErr     error
	// lastGood is owned by the driver state: the provider recycles the
	// map UpdateOne returns two updates later, and an update abandoned
	// by the fetch timeout still completes, so holding the provider's map
	// itself would let a later fetch clear it while buildView reads it.
	lastGood   map[string]EntityValues
	lastGoodAt time.Duration
	stale      bool // currently serving lastGood in place of a failed fetch

	// Cached instruments (see instrument.go).
	hFetch      *telemetry.Histogram
	ctrFailures *telemetry.Counter
	ctrStale    *telemetry.Counter
}

// NewMiddleware creates a middleware over a metric provider (nil selects a
// provider with the default registry). Resilient failure handling is on by
// default; SetResilience tunes or disables it.
func NewMiddleware(provider *Provider) *Middleware {
	if provider == nil {
		provider = NewProvider(nil)
	}
	m := &Middleware{
		provider: provider,
		res:      DefaultResilience(),
		par:      DefaultParallelism(),
		drivers:  make(map[string]*driverState),
		tel:      telemetry.NewRegistry(),
		nowFn:    time.Now,
	}
	m.resolveInstruments()
	return m
}

// Provider returns the middleware's metric provider.
func (m *Middleware) Provider() *Provider { return m.provider }

// SetResilience replaces the failure-handling configuration. Zero fields
// are filled with defaults; Resilience{Disabled: true} restores the strict
// legacy loop.
func (m *Middleware) SetResilience(r Resilience) { m.res = r.withDefaults() }

// Resilience returns the active failure-handling configuration.
func (m *Middleware) Resilience() Resilience { return m.res }

// Bind registers a policy binding and the metrics it requires
// (Algorithm 1, line 1).
func (m *Middleware) Bind(b Binding) error {
	if b.Policy == nil {
		return errors.New("core: binding needs a policy")
	}
	if b.Translator == nil {
		return errors.New("core: binding needs a translator")
	}
	if len(b.Drivers) == 0 {
		return errors.New("core: binding needs at least one driver")
	}
	if err := m.provider.Register(b.Policy.Metrics()...); err != nil {
		return fmt.Errorf("bind %s: %w", b.Policy.Name(), err)
	}
	bp := &boundPolicy{
		Binding:        b,
		ticker:         NewTicker(b.Period),
		label:          m.bindingLabel(b.Policy.Name() + "/" + b.Translator.Name()),
		policyName:     b.Policy.Name(),
		translatorName: b.Translator.Name(),
	}
	// The in-place fast path only engages when the policy itself is the
	// in-place implementation (see InPlaceTarget): a wrapper embedding an
	// in-place policy but overriding Schedule must keep its override.
	bp.inPlace = InPlaceOf(b.Policy)
	bp.names = make([]string, 0, len(b.Drivers))
	for _, d := range b.Drivers {
		bp.names = append(bp.names, d.Name())
	}
	// Bindings reusing a Policy or Translator instance (which may hold
	// unsynchronized state: rngs, previous-group maps) share one
	// execution mutex so the parallel apply pool never runs them
	// concurrently.
	for _, other := range m.bindings {
		if sameInstance(other.Policy, b.Policy) || sameInstance(other.Translator, b.Translator) {
			bp.execMu = other.execMu
			break
		}
	}
	if bp.execMu == nil {
		bp.execMu = &sync.Mutex{}
	}
	bp.resolve(m.tel)
	if len(b.Queries) > 0 {
		bp.queries = make(map[string]bool, len(b.Queries))
		for _, q := range b.Queries {
			bp.queries[q] = true
		}
	}
	m.bindings = append(m.bindings, bp)
	for _, d := range b.Drivers {
		m.driverState(d.Name())
	}
	return nil
}

// bindingLabel makes the telemetry label unique across bindings: a second
// binding of the same policy/translator pair gets a "#2" suffix so their
// per-binding series don't merge. The assigned-label set is cached in
// labelTaken, so dedup is one map probe per candidate instead of a scan
// over all bindings (quadratic at 10k bindings).
func (m *Middleware) bindingLabel(base string) string {
	if m.labelTaken == nil {
		m.labelTaken = make(map[string]bool)
		m.labelNext = make(map[string]int)
	}
	label := base
	// Resume probing from the last suffix handed out for this base:
	// without the cursor, the nth duplicate binding re-probes #2..#n and
	// Bind degenerates quadratically at 10k identical pairs.
	for i := max(2, m.labelNext[base]); m.labelTaken[label]; i++ {
		label = fmt.Sprintf("%s#%d", base, i)
		m.labelNext[base] = i + 1
	}
	m.labelTaken[label] = true
	return label
}

// driverState returns (creating if needed) the tracked state of a driver.
func (m *Middleware) driverState(name string) *driverState {
	ds := m.drivers[name]
	if ds == nil {
		ds = &driverState{}
		ds.resolve(m.tel, name)
		m.drivers[name] = ds
	}
	return ds
}

// PolicyRuns returns how many policy executions have completed. It reads
// the lachesis_policy_runs_total telemetry counter.
func (m *Middleware) PolicyRuns() int64 { return m.ins.policyRuns.Value() }

// ApplyErrors returns how many policy/translator executions failed. It
// reads the lachesis_apply_errors_total telemetry counter.
func (m *Middleware) ApplyErrors() int64 { return m.ins.applyErrors.Value() }

// PanicsRecovered returns how many policy/translator panics the loop has
// absorbed. It reads the lachesis_panics_recovered_total telemetry counter.
func (m *Middleware) PanicsRecovered() int64 { return m.ins.panics.Value() }

// DriverStepStats is one driver's slice of a Step: how long its metric
// fetch (including derived-metric computation) took and how it ended.
type DriverStepStats struct {
	Driver string
	// Fetch is the wall-clock duration of the provider update.
	Fetch time.Duration
	// Stale marks a failed fetch answered from last-good values.
	Stale bool
	Err   string
}

// BindingStepStats is one due binding's slice of a Step: wall-clock
// durations of its two phases plus the outcome.
type BindingStepStats struct {
	// Label is the binding's unique telemetry label. It is exactly
	// "policy/translator" for a unique pair; only when a later binding
	// actually collides with an earlier one's label does it get a
	// "#2", "#3", ... suffix (dedup on collision, never preemptively).
	Label      string
	Policy     string
	Translator string
	// Entities is the entity count of the binding's view.
	Entities int
	// Schedule is the wall-clock duration of the policy run.
	Schedule time.Duration
	// Apply is the wall-clock duration of the translator apply.
	Apply time.Duration
	// Quarantined marks a binding skipped by an open breaker (no phases
	// ran).
	Quarantined bool
	// Memoized marks a cycle served from the decision memo: inputs were
	// unchanged since the last successful apply, so no phase ran and the
	// OS keeps enforcing the previous schedule (see Binding.Memoize).
	Memoized bool
	Err      string
}

// StepStats reports what one Step did, letting callers model the
// middleware's (small) CPU footprint and attribute it per phase.
//
// Per-binding entries appear in Bindings in binding order (regardless of
// which apply worker finished first), keyed by BindingStepStats.Label.
// Labels are the plain "policy/translator" name and are only suffixed
// with "#N" when two bindings would otherwise collide — a unique binding
// never carries a dedup suffix.
//
// The Bindings and Drivers slices are backed by middleware-owned scratch
// arrays reused across cycles: they are valid until the next Step on the
// same Middleware. Callers that retain them across steps must copy.
type StepStats struct {
	// PoliciesRun is the number of due policies executed.
	PoliciesRun int
	// Entities is the total entity count across executed policies.
	Entities int
	// Quarantined is the number of due bindings skipped by an open
	// circuit breaker.
	Quarantined int
	// Memoized is the number of due bindings served from the decision
	// memo this step (unchanged inputs, pipeline skipped; not counted in
	// PoliciesRun because no policy executed).
	Memoized int
	// Next is the earliest time any policy is due again. It is always in
	// the future, even when every driver failed, so callers honoring it
	// never busy-loop.
	Next time.Duration
	// Wall is the measured wall-clock duration of the whole Step.
	Wall time.Duration
	// Bindings breaks the step down per due binding, in binding order.
	Bindings []BindingStepStats
	// Drivers breaks the step down per fetched driver (resilient mode
	// only; the strict loop fetches all drivers in one indivisible
	// update).
	Drivers []DriverStepStats
}

// Step runs one iteration of Algorithm 1 at virtual (or wall) time now:
// update metrics if any policy is due, run due policies, apply their
// schedules, and report when to wake next. Errors from individual drivers,
// policies, and translators are joined but quarantine only the bindings
// that depend on them; a panicking user policy is converted into an error.
func (m *Middleware) Step(now time.Duration) (StepStats, error) {
	stats := StepStats{}
	if len(m.bindings) == 0 {
		stats.Next = now + time.Second
		return stats, nil
	}
	// Collect due bindings and advance their tickers up front: a failed
	// cycle must never leave stats.Next in the past (ticker-stall bug).
	// The due slice and the stats backing arrays are middleware-owned
	// scratch, reused across cycles (see StepStats doc).
	due := m.scratch.due[:0]
	for _, bp := range m.bindings {
		if bp.ticker.Due(now) {
			bp.ticker.Advance(now)
			due = append(due, bp)
		}
	}
	m.scratch.due = due
	if len(due) == 0 {
		stats.Next = m.nextDue()
		return stats, nil
	}
	stats.Bindings = m.scratch.bindingStats[:0]
	stats.Drivers = m.scratch.driverStats[:0]

	start := m.nowFn()
	m.cycleSpans.Store(0)
	cycle := m.spans.StartRoot(now, "cycle")
	if cycle != nil {
		// Gated: fmt.Sprint allocates, and the attribute is useless when
		// tracing is off.
		cycle.SetAttr("due", fmt.Sprint(len(due)))
	}
	m.cycleCtx = cycle.Context()
	var errs []error
	if m.res.Disabled {
		errs = m.stepStrict(now, due, &stats)
	} else {
		errs = m.stepResilient(now, due, &stats)
	}
	stats.Wall = m.nowFn().Sub(start)
	m.ins.steps.Inc()
	err := errors.Join(errs...)
	if cycle != nil {
		if n := m.cycleSpans.Load(); m.spanBudget > 0 && n > int64(m.spanBudget) {
			cycle.SetAttr("spans_dropped", fmt.Sprint(n-int64(m.spanBudget)))
		}
		cycle.End(err)
		// Exemplar-link the latency histogram to the trace: a p99 outlier
		// bucket names the cycle that landed in it.
		m.ins.stepSeconds.ObserveExemplar(stats.Wall, m.cycleCtx.Trace)
	} else {
		m.ins.stepSeconds.Observe(stats.Wall)
	}
	stats.Next = m.nextDue()
	// Keep the (possibly grown) backing arrays for the next cycle.
	m.scratch.bindingStats = stats.Bindings
	m.scratch.driverStats = stats.Drivers
	return stats, err
}

// stepStrict is the pre-hardening cycle: one all-or-nothing provider
// update, no breaker, no panic isolation.
func (m *Middleware) stepStrict(now time.Duration, due []*boundPolicy, stats *StepStats) []error {
	var errs []error
	drivers := distinctDrivers(due)
	values, err := m.provider.Update(now, drivers)
	if err != nil {
		return []error{err}
	}
	for _, bp := range due {
		view := m.buildView(now, bp, values)
		stats.PoliciesRun++
		stats.Entities += len(view.Entities)
		bst := BindingStepStats{
			Label:      bp.label,
			Policy:     bp.Policy.Name(),
			Translator: bp.Translator.Name(),
			Entities:   len(view.Entities),
		}
		t0 := m.nowFn()
		sched, err := bp.Policy.Schedule(view)
		bst.Schedule = m.nowFn().Sub(t0)
		bp.hSchedule.Observe(bst.Schedule)
		if err != nil {
			m.ins.applyErrors.Inc()
			bst.Err = err.Error()
			stats.Bindings = append(stats.Bindings, bst)
			errs = append(errs, fmt.Errorf("policy %s: %w", bp.Policy.Name(), err))
			continue
		}
		done := m.auditApplyCtx(now, bp, view.Entities)
		if bp.Guard != nil {
			bp.Guard.BeginApply(now, bp.label, view)
		}
		t0 = m.nowFn()
		aerr := bp.Translator.Apply(sched, view.Entities)
		if bp.Guard != nil {
			// The strict loop still validates batches; without
			// FinishApply the guard would swallow every buffered op.
			aerr = errors.Join(aerr, bp.Guard.FinishApply())
		}
		bst.Apply = m.nowFn().Sub(t0)
		done()
		bp.hApply.Observe(bst.Apply)
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindApply, Policy: bst.Policy, Translator: bst.Translator,
			Entities: bst.Entities, Outcome: outcome(aerr),
		})
		if aerr != nil {
			m.ins.applyErrors.Inc()
			bst.Err = aerr.Error()
			stats.Bindings = append(stats.Bindings, bst)
			errs = append(errs, fmt.Errorf("translate %s/%s: %w", bp.Policy.Name(), bp.Translator.Name(), aerr))
			continue
		}
		stats.Bindings = append(stats.Bindings, bst)
		m.ins.policyRuns.Inc()
	}
	return errs
}

// stepResilient is the hardened cycle, structured as the parallel
// pipeline: breaker gating, then the concurrent per-driver fetch phase
// (per-driver updates with last-good fallback), then the per-binding
// apply phase (policy evaluation + translator apply, concurrent across
// bindings when a write gate is installed), with panic isolation
// throughout. See parallel.go for the phase implementations.
func (m *Middleware) stepResilient(now time.Duration, due []*boundPolicy, stats *StepStats) []error {
	var errs []error
	// Run breaker gating first so quarantined-only drivers are not
	// scraped.
	runnable := m.scratch.runnable[:0]
	for _, bp := range due {
		if bp.open && now < bp.openUntil {
			stats.Quarantined++
			bp.ctrQuarantined.Inc()
			stats.Bindings = append(stats.Bindings, BindingStepStats{
				Label:  bp.label,
				Policy: bp.policyName, Translator: bp.translatorName, Quarantined: true,
			})
			m.auditRecord(AuditEvent{
				At: now, Kind: AuditKindQuarantine,
				Policy: bp.policyName, Translator: bp.translatorName,
				Outcome: fmt.Sprintf("open until %v", bp.openUntil),
			})
			continue
		}
		runnable = append(runnable, bp)
	}
	m.scratch.runnable = runnable

	values, unavailable := m.fetchPhase(now, runnable, stats, &errs)
	m.applyPhase(now, runnable, values, unavailable, stats, &errs)
	return errs
}

// recordFailure advances a binding's breaker state after a failed run.
func (m *Middleware) recordFailure(bp *boundPolicy, now time.Duration, err error) {
	bp.fails++
	bp.lastErr = err
	bp.memoValid = false // a failed cycle must never be served from the memo
	if bp.open {
		// Failed half-open probe: re-quarantine with doubled backoff.
		bp.opens++
		bp.openUntil = now + m.backoff(bp)
		bp.breakerCounter("reopen").Inc()
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindBreaker, Policy: bp.Policy.Name(),
			Translator: bp.Translator.Name(),
			Outcome:    fmt.Sprintf("reopen until %v: %v", bp.openUntil, err),
		})
		return
	}
	if bp.fails >= m.res.FailureThreshold {
		bp.open = true
		bp.opens++
		bp.openUntil = now + m.backoff(bp)
		bp.breakerCounter("open").Inc()
		m.auditRecord(AuditEvent{
			At: now, Kind: AuditKindBreaker, Policy: bp.Policy.Name(),
			Translator: bp.Translator.Name(),
			Outcome:    fmt.Sprintf("open until %v: %v", bp.openUntil, err),
		})
		if m.res.Degraded == DegradedReset {
			m.resetBinding(now, bp)
		}
	}
}

// backoff returns the quarantine interval for a binding's current opening
// count: base * 2^(opens-1), capped at MaxBackoff.
func (m *Middleware) backoff(bp *boundPolicy) time.Duration {
	base := m.res.BaseBackoff
	if base <= 0 {
		base = bp.ticker.Period()
	}
	shift := bp.opens - 1
	if shift > 16 {
		shift = 16
	}
	d := base << shift
	if d > m.res.MaxBackoff || d <= 0 {
		d = m.res.MaxBackoff
	}
	return d
}

// resetBinding hands a quarantined binding's entities back to default OS
// scheduling, best-effort: through the translator's Resetter capability
// when available, otherwise by applying a neutral (all-equal) schedule.
func (m *Middleware) resetBinding(now time.Duration, bp *boundPolicy) {
	bp.memoValid = false // the applied schedule is being replaced by neutral
	if len(bp.lastEntities) == 0 {
		return
	}
	defer m.auditApplyCtx(now, bp, bp.lastEntities)()
	if r, ok := bp.Translator.(Resetter); ok {
		defer func() {
			if rec := recover(); rec != nil {
				m.ins.panics.Inc()
			}
		}()
		_ = r.Reset(bp.lastEntities)
		return
	}
	single := make(map[string]float64, len(bp.lastEntities))
	for name := range bp.lastEntities {
		single[name] = 0
	}
	neutral := Schedule{
		Scale:  ScaleLinear,
		Single: single,
		Groups: perOpGroups(single),
	}
	_ = m.safeApply(bp.Translator, neutral, bp.lastEntities)
}

// safeSchedule runs a policy with panic isolation: a buggy user policy
// becomes an error, never a crashed main loop.
func (m *Middleware) safeSchedule(p Policy, v *View) (sched Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.ins.panics.Inc()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.Schedule(v)
}

// safeScheduleBP is safeSchedule routed through the binding: a policy
// implementing InPlaceScheduler writes into the binding's reusable
// schedule buffers instead of allocating a fresh Schedule per cycle. The
// returned Schedule aliases those buffers and is valid until the
// binding's next run — runBinding consumes it synchronously.
func (m *Middleware) safeScheduleBP(bp *boundPolicy, v *View) (sched Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.ins.panics.Inc()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if bp.inPlace != nil {
		bp.resetSched()
		if err := bp.inPlace.ScheduleInto(v, &bp.sched); err != nil {
			return Schedule{}, err
		}
		return bp.sched, nil
	}
	return bp.Policy.Schedule(v)
}

// safeApply runs a translator with panic isolation.
func (m *Middleware) safeApply(t Translator, sched Schedule, entities map[string]Entity) (err error) {
	defer func() {
		if r := recover(); r != nil {
			m.ins.panics.Inc()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return t.Apply(sched, entities)
}

// Health returns a snapshot of per-binding breaker state and per-driver
// fetch health.
func (m *Middleware) Health() Health {
	h := Health{}
	for _, bp := range m.bindings {
		bh := BindingHealth{
			Policy:              bp.Policy.Name(),
			Translator:          bp.Translator.Name(),
			ConsecutiveFailures: bp.fails,
			LastSuccess:         bp.lastSuccess,
			HasSucceeded:        bp.haveSuccess,
		}
		switch {
		case bp.open:
			bh.State = BindingQuarantined
			bh.OpenUntil = bp.openUntil
		case bp.fails > 0:
			bh.State = BindingDegraded
		default:
			bh.State = BindingHealthy
		}
		if bp.lastErr != nil {
			bh.LastError = bp.lastErr.Error()
		}
		h.Bindings = append(h.Bindings, bh)
	}
	names := make([]string, 0, len(m.drivers))
	for name := range m.drivers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := m.drivers[name]
		dh := DriverHealth{
			Driver:              name,
			ConsecutiveFailures: ds.fails,
			LastSuccess:         ds.lastSuccess,
			HasSucceeded:        ds.haveSuccess,
			ServingStale:        ds.stale,
		}
		if ds.lastErr != nil {
			dh.LastError = ds.lastErr.Error()
		}
		h.Drivers = append(h.Drivers, dh)
	}
	return h
}

// distinctDrivers returns the distinct drivers across the given bindings.
func distinctDrivers(bps []*boundPolicy) []Driver {
	seen := make(map[string]bool)
	var out []Driver
	for _, bp := range bps {
		for _, d := range bp.Drivers {
			if !seen[d.Name()] {
				seen[d.Name()] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// distinctDriversScratch is distinctDrivers over the middleware's reused
// scratch buffers: the returned slice is valid until the next cycle.
func (m *Middleware) distinctDriversScratch(bps []*boundPolicy) []Driver {
	sc := &m.scratch
	if sc.driverSeen == nil {
		sc.driverSeen = make(map[string]bool)
	}
	clear(sc.driverSeen)
	sc.drivers = sc.drivers[:0]
	for _, bp := range bps {
		for _, d := range bp.Drivers {
			if !sc.driverSeen[d.Name()] {
				sc.driverSeen[d.Name()] = true
				sc.drivers = append(sc.drivers, d)
			}
		}
	}
	return sc.drivers
}

// buildView assembles the policy's view: entities of its drivers (filtered
// by query scope) and the merged metric values. Drivers absent from values
// (unavailable this cycle) contribute neither entities nor metrics — their
// operators are quarantined until the driver recovers.
//
// The view and its maps are binding-owned scratch, cleared and refilled in
// place each cycle — with a stable entity set, a steady-state build does
// not touch the allocator. The returned *View is valid until the binding's
// next run; nothing downstream retains it (lastEntities is a copy).
func (m *Middleware) buildView(now time.Duration, bp *boundPolicy, values Values) *View {
	bp.resetViewScratch()
	entities := bp.viewEntities
	merged := bp.viewMerged
	for _, d := range bp.Drivers {
		vals, ok := values[d.Name()]
		if !ok {
			continue
		}
		for _, ent := range d.Entities() {
			if bp.queries != nil && !bp.queries[ent.Query] {
				continue
			}
			entities[ent.Name] = ent
		}
		for metric, mvals := range vals {
			dst := merged[metric]
			if dst == nil {
				dst = make(EntityValues, len(mvals))
				merged[metric] = dst
			}
			for e, v := range mvals {
				if _, keep := entities[e]; keep {
					dst[e] = v
				}
			}
		}
	}
	bp.view = View{Now: now, Entities: entities, values: merged}
	return &bp.view
}

// nextDue returns the earliest next fire time across bindings.
func (m *Middleware) nextDue() time.Duration {
	next := m.bindings[0].ticker.Next()
	for _, bp := range m.bindings[1:] {
		if t := bp.ticker.Next(); t < next {
			next = t
		}
	}
	return next
}
