package guard

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// Canary telemetry metric names.
const (
	MetricCanaryState           = "lachesis_canary_state" // 0 idle, 1 rollout in progress
	MetricCanaryPromotionsTotal = "lachesis_canary_promotions_total"
	MetricCanaryRollbacksTotal  = "lachesis_canary_rollbacks_total"
)

// Rollout decisions as rendered in Status and audit events.
const (
	DecisionPromoted   = "promoted"
	DecisionRolledBack = "rolled-back"
)

// SLOSample is one group's service level at a sampling instant. OK is
// false when the sampler has no data for the group (e.g. before any
// tuple reached a sink).
type SLOSample struct {
	LatencyP95 float64 // seconds (or any consistent latency unit)
	Throughput float64 // tuples/s (or any consistent rate unit)
	OK         bool
}

// Sampler reports the current service level of a group of slots (by slot
// name). The rollout experiment feeds it from the metrics store; the
// daemon may leave it nil, in which case verdicts rest on guard
// violations alone.
type Sampler func(group []string) SLOSample

// PolicyStore persists the last-good policy configuration so a rollback
// survives a daemon crash. reconcile.Store implements it alongside the
// desired-state snapshot.
type PolicyStore interface {
	SaveLastGoodPolicy(config []byte) error
	LoadLastGoodPolicy() ([]byte, bool, error)
}

// Config tunes the canary controller. Zero values select the defaults.
type Config struct {
	// Fraction of slots that receive the candidate policy during a
	// rollout (default 0.5). At least one slot canaries; when there is
	// more than one slot, at least one stays on the stable policy as the
	// control group.
	Fraction float64
	// Window is the comparison window in decision cycles (default 5).
	Window int
	// MaxLatencyFactor rolls back when the canary group's p95 latency
	// degraded by more than this factor relative to the control group's
	// degradation over the window (default 1.5).
	MaxLatencyFactor float64
	// MinThroughputFactor rolls back when the canary group's throughput
	// fell below this fraction of the control group's relative
	// throughput (default 0.7).
	MinThroughputFactor float64
}

func (c Config) withDefaults() Config {
	if c.Fraction <= 0 || c.Fraction > 1 {
		c.Fraction = 0.5
	}
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.MaxLatencyFactor <= 0 {
		c.MaxLatencyFactor = 1.5
	}
	if c.MinThroughputFactor <= 0 {
		c.MinThroughputFactor = 0.7
	}
	return c
}

// Slot is one binding's switchable policy: it implements core.Policy and
// delegates to either the stable or the candidate policy. Its Name is
// fixed at creation (the stable policy's name), so binding labels and
// per-binding telemetry series stay continuous across promotions.
type Slot struct {
	mu        sync.Mutex
	name      string
	stable    core.Policy
	candidate core.Policy // non-nil while this slot carries the candidate
}

var _ core.InPlaceScheduler = (*Slot)(nil)

// Name implements core.Policy.
func (s *Slot) Name() string { return s.name }

// Metrics implements core.Policy: the stable policy's requirements. A
// candidate's additional metrics are registered with the provider at
// Propose time (SetProvider).
func (s *Slot) Metrics() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable.Metrics()
}

// Schedule implements core.Policy.
func (s *Slot) Schedule(view *core.View) (core.Schedule, error) {
	return s.active().Schedule(view)
}

// ScheduleInto implements core.InPlaceScheduler: an active policy with
// its own in-place path writes into out directly, any other one's
// Schedule is copied in. Either way, group buckets left without ops are
// dropped, since the previous cycle may have run a policy with other
// groups.
func (s *Slot) ScheduleInto(view *core.View, out *core.Schedule) error {
	p := s.active()
	if ip := core.InPlaceOf(p); ip != nil {
		if err := ip.ScheduleInto(view, out); err != nil {
			return err
		}
	} else {
		sched, err := p.Schedule(view)
		if err != nil {
			return err
		}
		out.Scale = sched.Scale
		maps.Copy(out.Single, sched.Single)
		if len(sched.Groups) > 0 && out.Groups == nil {
			out.Groups = make(map[string]core.Group, len(sched.Groups))
		}
		for gid, g := range sched.Groups {
			// Copy the ops into out's own bucket: out reuses it next
			// cycle, and the slice belongs to the policy.
			grp := out.Groups[gid]
			grp.Priority = g.Priority
			grp.Ops = append(grp.Ops, g.Ops...)
			out.Groups[gid] = grp
		}
	}
	core.DropEmptyGroups(out)
	return nil
}

// InPlaceTarget implements core.InPlaceScheduler.
func (s *Slot) InPlaceTarget() core.Policy { return s }

// active returns the policy the slot runs now.
func (s *Slot) active() core.Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.candidate != nil {
		return s.candidate
	}
	return s.stable
}

// Canarying reports whether the slot currently runs the candidate.
func (s *Slot) Canarying() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.candidate != nil
}

// Canary is the rollout controller: Propose stages a new policy on a
// fraction of the slots, Tick (once per decision cycle) watches the
// comparison window, and the verdict either promotes the candidate to
// every slot — persisting its config as the new last-good — or rolls the
// canary slots back to the stable policy. Guard violations during the
// window abort the rollout immediately.
type Canary struct {
	cfg Config

	mu         sync.Mutex
	slots      []*Slot
	sampler    Sampler
	store      PolicyStore
	provider   *core.Provider
	violations func() int64
	trail      *core.AuditTrail

	// Active rollout state.
	active         bool
	candName       string
	candidate      core.Policy
	candConfig     []byte
	cycles         int
	startViolation int64
	baseCanary     SLOSample
	baseControl    SLOSample

	lastDecision string
	lastReason   string
	promotions   int64
	rollbacks    int64

	tel       *telemetry.Registry
	gState    *telemetry.Gauge
	ctrPromo  *telemetry.Counter
	ctrRollbk *telemetry.Counter

	// Tracing: the "canary.stage" span stays open across the comparison
	// window (its wall time is the window duration) and parents the
	// verdict span, so a cross-process rollout trace reads
	// rollout -> push -> canary.stage -> canary.verdict.
	spans        *span.Recorder
	stageSpan    *span.Active
	stageCtx     span.Context
	rollbackHook func(now time.Duration, trace, reason string)
}

// NewCanary builds a canary controller (zero Config fields select
// defaults).
func NewCanary(cfg Config) *Canary {
	return &Canary{cfg: cfg.withDefaults()}
}

// Slot wraps a stable policy into a switchable slot and registers it
// with the controller. Bind the returned Slot as the binding's Policy.
func (c *Canary) Slot(stable core.Policy) *Slot {
	s := &Slot{name: stable.Name(), stable: stable}
	c.mu.Lock()
	c.slots = append(c.slots, s)
	c.mu.Unlock()
	return s
}

// SetSampler installs the SLO source for verdicts. nil means verdicts
// rest on guard violations alone.
func (c *Canary) SetSampler(s Sampler) { c.mu.Lock(); c.sampler = s; c.mu.Unlock() }

// SetPolicyStore installs last-good persistence. nil disables.
func (c *Canary) SetPolicyStore(ps PolicyStore) { c.mu.Lock(); c.store = ps; c.mu.Unlock() }

// SetProvider lets Propose register a candidate's metric requirements so
// its inputs are resolved from the first canary cycle.
func (c *Canary) SetProvider(p *core.Provider) { c.mu.Lock(); c.provider = p; c.mu.Unlock() }

// SetViolationSource installs the guard-violation counter read to abort
// a rollout early (e.g. OpGuard.Violations).
func (c *Canary) SetViolationSource(f func() int64) { c.mu.Lock(); c.violations = f; c.mu.Unlock() }

// SetAudit installs an audit trail for rollout decisions. nil disables.
func (c *Canary) SetAudit(trail *core.AuditTrail) { c.mu.Lock(); c.trail = trail; c.mu.Unlock() }

// SetSpans attaches a trace recorder: each rollout then emits a
// "canary.stage" span (open for the whole comparison window) and a
// "canary.verdict" child carrying the decision. nil disables.
func (c *Canary) SetSpans(rec *span.Recorder) { c.mu.Lock(); c.spans = rec; c.mu.Unlock() }

// SetRollbackHook installs a callback fired after a rollout rolls back
// (typically span.FlightRecorder.Trip). trace is the rollout's trace ID
// ("" when tracing is off). The hook runs with the canary's lock held
// and must not call back into the controller. nil disables.
func (c *Canary) SetRollbackHook(hook func(now time.Duration, trace, reason string)) {
	c.mu.Lock()
	c.rollbackHook = hook
	c.mu.Unlock()
}

// SetTelemetry registers the canary's instruments in a registry.
func (c *Canary) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = reg
	c.gState = reg.Gauge(MetricCanaryState)
	c.gState.Set(0)
	c.ctrPromo = reg.Counter(MetricCanaryPromotionsTotal)
	c.ctrRollbk = reg.Counter(MetricCanaryRollbacksTotal)
}

// Propose stages a candidate policy: a Fraction of the slots switch to
// it, the rest keep the stable policy as the control group. config is
// the opaque policy configuration persisted as last-good if the
// candidate is promoted. Returns an error when a rollout is already in
// progress or the controller has no slots.
func (c *Canary) Propose(now time.Duration, name string, candidate core.Policy, config []byte) error {
	return c.ProposeCtx(now, name, candidate, config, span.Context{})
}

// ProposeCtx is Propose with an incoming trace context (e.g. parsed from
// a fleet push's Traceparent header): the rollout's stage and verdict
// spans join the caller's trace instead of opening a local one, so one
// trace ID follows a fleet rollout coordinator -> agent -> verdict. A
// zero parent behaves exactly like Propose.
func (c *Canary) ProposeCtx(now time.Duration, name string, candidate core.Policy, config []byte, parent span.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		return fmt.Errorf("guard: rollout of %q still in progress", c.candName)
	}
	if len(c.slots) == 0 {
		return errors.New("guard: no slots registered")
	}
	if candidate == nil {
		return errors.New("guard: nil candidate policy")
	}
	if c.provider != nil {
		if err := c.provider.Register(candidate.Metrics()...); err != nil {
			return fmt.Errorf("guard: register candidate metrics: %w", err)
		}
	}
	n := int(math.Round(c.cfg.Fraction * float64(len(c.slots))))
	if n < 1 {
		n = 1
	}
	if len(c.slots) > 1 && n >= len(c.slots) {
		n = len(c.slots) - 1 // always keep a control slot when possible
	}
	for i := 0; i < n; i++ {
		s := c.slots[i]
		s.mu.Lock()
		s.candidate = candidate
		s.mu.Unlock()
	}
	c.active = true
	c.candName = name
	c.candidate = candidate
	c.candConfig = config
	c.cycles = 0
	if c.violations != nil {
		c.startViolation = c.violations()
	}
	if c.sampler != nil {
		c.baseCanary = c.sampler(c.groupLocked(true))
		c.baseControl = c.sampler(c.groupLocked(false))
	}
	if c.gState != nil {
		c.gState.Set(1)
	}
	stage := c.spans.StartChild(parent, now, "canary.stage")
	stage.SetAttr("candidate", name)
	stage.SetAttr("canary_slots", fmt.Sprint(n))
	c.stageSpan = stage
	c.stageCtx = stage.Context()
	c.record(now, fmt.Sprintf("proposed %q to %d/%d slots (window %d cycles)",
		name, n, len(c.slots), c.cfg.Window))
	return nil
}

// Tick advances the rollout by one decision cycle: call it once after
// each Middleware.Step. Guard violations abort immediately; at the end
// of the window the SLO verdict promotes or rolls back.
func (c *Canary) Tick(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		return
	}
	c.cycles++
	if c.violations != nil {
		if v := c.violations() - c.startViolation; v > 0 {
			c.rollbackLocked(now, fmt.Sprintf("%d guard violations during canary window", v))
			return
		}
	}
	if c.cycles < c.cfg.Window {
		return
	}
	c.verdictLocked(now)
}

// verdictLocked compares each group's SLO degradation over the window
// through the shared JudgeSLO helper. Factors are relative to the
// group's own baseline at Propose time, so canary and control groups
// need not run identical workloads.
func (c *Canary) verdictLocked(now time.Duration) {
	if c.sampler == nil {
		c.promoteLocked(now, "window clean (no SLO sampler, no guard violations)")
		return
	}
	canary := c.sampler(c.groupLocked(true))
	control := c.sampler(c.groupLocked(false))
	v := JudgeSLO(c.cfg, c.baseCanary, canary, c.baseControl, control)
	switch {
	case v.Insufficient:
		c.promoteLocked(now, "window clean (insufficient SLO data for canary group)")
	case v.Rollback:
		c.rollbackLocked(now, v.Reason)
	default:
		c.promoteLocked(now, v.Reason)
	}
}

// promoteLocked makes the candidate the stable policy on every slot and
// persists its config as the new last-good.
func (c *Canary) promoteLocked(now time.Duration, reason string) {
	for _, s := range c.slots {
		s.mu.Lock()
		s.stable = c.candidate
		s.candidate = nil
		s.mu.Unlock()
	}
	if c.store != nil && c.candConfig != nil {
		if err := c.store.SaveLastGoodPolicy(c.candConfig); err != nil {
			reason += "; WARNING: persisting last-good failed: " + err.Error()
		}
	}
	c.promotions++
	if c.ctrPromo != nil {
		c.ctrPromo.Inc()
	}
	c.endRolloutLocked(now, DecisionPromoted, reason)
}

// rollbackLocked reverts the canary slots to the stable (last-good)
// policy. The persisted last-good config is untouched, so a crash at any
// point restarts on the stable policy.
func (c *Canary) rollbackLocked(now time.Duration, reason string) {
	for _, s := range c.slots {
		s.mu.Lock()
		s.candidate = nil
		s.mu.Unlock()
	}
	c.rollbacks++
	if c.ctrRollbk != nil {
		c.ctrRollbk.Inc()
	}
	trace := c.stageCtx.Trace
	c.endRolloutLocked(now, DecisionRolledBack, reason)
	if c.rollbackHook != nil {
		// After endRolloutLocked so the verdict span is already in the
		// ring when the flight recorder snapshots it.
		c.rollbackHook(now, trace, reason)
	}
}

func (c *Canary) endRolloutLocked(now time.Duration, decision, reason string) {
	verdict := c.spans.StartChild(c.stageCtx, now, "canary.verdict")
	verdict.SetAttr("candidate", c.candName)
	verdict.SetAttr("decision", decision)
	if decision == DecisionRolledBack {
		verdict.End(errors.New(reason))
		c.stageSpan.End(errors.New(reason))
	} else {
		verdict.End(nil)
		c.stageSpan.End(nil)
	}
	c.stageSpan = nil
	c.stageCtx = span.Context{}
	c.active = false
	c.candidate = nil
	c.candConfig = nil
	c.lastDecision = decision
	c.lastReason = reason
	if c.gState != nil {
		c.gState.Set(0)
	}
	c.record(now, fmt.Sprintf("%s %q after %d cycles: %s", decision, c.candName, c.cycles, reason))
}

// record emits a canary audit event (caller holds c.mu).
func (c *Canary) record(now time.Duration, outcome string) {
	if c.trail != nil {
		c.trail.Record(core.AuditEvent{At: now, Kind: core.AuditKindCanary, Outcome: outcome})
	}
}

// groupLocked lists slot names by canary membership.
func (c *Canary) groupLocked(canary bool) []string {
	var out []string
	for _, s := range c.slots {
		if s.Canarying() == canary {
			out = append(out, s.Name())
		}
	}
	return out
}

// Status is the rollout state exposed in /health and experiment reports.
type Status struct {
	Active       bool   `json:"active"`
	Candidate    string `json:"candidate,omitempty"`
	Cycles       int    `json:"cycles"`
	Window       int    `json:"window"`
	CanarySlots  int    `json:"canary_slots"`
	Slots        int    `json:"slots"`
	LastDecision string `json:"last_decision,omitempty"`
	LastReason   string `json:"last_reason,omitempty"`
	Promotions   int64  `json:"promotions"`
	Rollbacks    int64  `json:"rollbacks"`
}

// Status snapshots the controller state.
func (c *Canary) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Active: c.active, Cycles: c.cycles, Window: c.cfg.Window,
		Slots: len(c.slots), LastDecision: c.lastDecision, LastReason: c.lastReason,
		Promotions: c.promotions, Rollbacks: c.rollbacks,
	}
	if c.active {
		st.Candidate = c.candName
	}
	st.CanarySlots = len(c.groupLocked(true))
	return st
}
