package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/guard"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// Rollout phases. The coordinator's tick loop is a state machine:
// pushing delivers the candidate to the current cohort, observing judges
// the cohort's SLO window, rolling-back restores the stable payload to
// every agent that got the candidate.
type Phase string

// Phase values.
const (
	PhaseIdle        Phase = "idle"
	PhasePushing     Phase = "pushing"
	PhaseObserving   Phase = "observing"
	PhaseRollingBack Phase = "rolling-back"
)

// phaseGauge maps a phase to the MetricFleetRolloutState gauge value.
func phaseGauge(p Phase) float64 {
	switch p {
	case PhasePushing:
		return 1
	case PhaseObserving:
		return 2
	case PhaseRollingBack:
		return 3
	default:
		return 0
	}
}

// RolloutConfig tunes the fleet canary. Zero values select defaults.
type RolloutConfig struct {
	// CanaryFraction of active agents forms the first (canary) cohort
	// (default 0.25, at least one agent; when the fleet has more than one
	// agent, at least one stays outside the canary cohort).
	CanaryFraction float64
	// Waves after the canary cohort carry the remaining agents (default
	// 2). Each wave is pushed and observed like the canary cohort.
	Waves int
	// WindowTicks is the observation window per cohort (default 5).
	WindowTicks int
	// PushTicks bounds how many ticks a cohort push may take before
	// unreachable agents are degraded out of the wave (default 5) —
	// a crashed node must not stall the rollout forever.
	PushTicks int
	// SLO are the per-node verdict factors fed to guard.JudgeSLO
	// (zero fields select the guard defaults: 1.5x latency, 0.7x
	// throughput, relative to the not-yet-staged agents as control).
	SLO guard.Config
	// Fanout tunes the push engine.
	Fanout FanoutConfig
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.CanaryFraction <= 0 || c.CanaryFraction > 1 {
		c.CanaryFraction = 0.25
	}
	if c.Waves <= 0 {
		c.Waves = 2
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 5
	}
	if c.PushTicks <= 0 {
		c.PushTicks = 5
	}
	return c
}

// AgentRollout is one agent's place in the rollout.
type AgentRollout struct {
	// Wave index into Cohorts (0 = canary cohort).
	Wave int `json:"wave"`
	// Pushed: the agent accepted the candidate.
	Pushed bool `json:"pushed"`
	// Degraded: the agent was unreachable past the push deadline and was
	// dropped from the wave (it keeps running last-good untouched).
	Degraded bool `json:"degraded,omitempty"`
	// Restored: during rollback, the agent is back on the stable payload
	// (either it accepted the stable push or its local guard already
	// rolled the candidate back on its own).
	Restored bool `json:"restored,omitempty"`
	// Baseline is the agent's SLO at push time; the observation window
	// judges degradation relative to it.
	Baseline guard.SLOSample `json:"baseline"`
	// BaseRollbacks is the agent's local rollback count at push time; an
	// increase during the window means the agent's own guard aborted the
	// candidate — an immediate fleet-level rollback signal.
	BaseRollbacks int64 `json:"base_rollbacks"`
}

// RolloutState is the persisted fleet canary state machine. Every
// transition is saved through the Store, so a coordinator crash resumes
// the rollout exactly where it was — including mid-rollback.
type RolloutState struct {
	Active        bool                     `json:"active"`
	Version       string                   `json:"version,omitempty"`
	Payload       []byte                   `json:"payload,omitempty"`
	StablePayload []byte                   `json:"stable_payload,omitempty"`
	Phase         Phase                    `json:"phase"`
	Wave          int                      `json:"wave"`
	Ticks         int                      `json:"ticks"`
	Cohorts       [][]string               `json:"cohorts,omitempty"`
	Agents        map[string]*AgentRollout `json:"agents,omitempty"`
	// BaselineRef is the control group's (not-yet-staged agents')
	// aggregate SLO at the start of the current observation window.
	BaselineRef guard.SLOSample `json:"baseline_ref"`
	// RollbackReason records why a rollback was triggered while the
	// rolling-back phase drains.
	RollbackReason string `json:"rollback_reason,omitempty"`

	LastDecision string `json:"last_decision,omitempty"`
	LastReason   string `json:"last_reason,omitempty"`
	Promotions   int64  `json:"promotions"`
	Rollbacks    int64  `json:"rollbacks"`

	// LastGood is the fleet-level last-good payload: the candidate of the
	// most recent promotion (or the boot policy seeded through
	// SeedLastGood). It outlives the rollout that set it and is the
	// rollback target of the next Propose, so it is persisted and
	// replicated with the rest of the state machine.
	LastGood []byte `json:"last_good,omitempty"`
}

// clone deep-copies the state so replication checkpoints and Status
// snapshots never alias the coordinator's live maps.
func (st RolloutState) clone() RolloutState {
	out := st
	if st.Payload != nil {
		out.Payload = append([]byte(nil), st.Payload...)
	}
	if st.StablePayload != nil {
		out.StablePayload = append([]byte(nil), st.StablePayload...)
	}
	if st.LastGood != nil {
		out.LastGood = append([]byte(nil), st.LastGood...)
	}
	if st.Cohorts != nil {
		out.Cohorts = make([][]string, len(st.Cohorts))
		for i, c := range st.Cohorts {
			out.Cohorts[i] = append([]string(nil), c...)
		}
	}
	if st.Agents != nil {
		out.Agents = make(map[string]*AgentRollout, len(st.Agents))
		for id, a := range st.Agents {
			cp := *a
			out.Agents[id] = &cp
		}
	}
	return out
}

// FleetStatus is the rollout state exposed on /fleet/policy and
// /fleet/health.
type FleetStatus struct {
	Active       bool   `json:"active"`
	Phase        Phase  `json:"phase"`
	Version      string `json:"version,omitempty"`
	Wave         int    `json:"wave"`
	Cohorts      int    `json:"cohorts"`
	Ticks        int    `json:"ticks"`
	Pushed       int    `json:"pushed"`
	Degraded     int    `json:"degraded"`
	Restored     int    `json:"restored"`
	LastDecision string `json:"last_decision,omitempty"`
	LastReason   string `json:"last_reason,omitempty"`
	Promotions   int64  `json:"promotions"`
	Rollbacks    int64  `json:"rollbacks"`
	// FencedPushes counts pushes agents rejected for a stale epoch — any
	// nonzero value means this coordinator was deposed.
	FencedPushes int64 `json:"fenced_pushes,omitempty"`
}

// Coordinator runs fleet-wide canary rollouts: Propose stages a
// versioned candidate, Tick advances the wave state machine. All agent
// traffic goes through the Fanout; all verdicts go through
// guard.JudgeSLO with the not-yet-staged agents as the control group.
type Coordinator struct {
	cfg    RolloutConfig
	reg    *Registry
	conns  ConnFactory
	fanout *Fanout

	mu      sync.Mutex
	ticking bool
	st      RolloutState
	store   *Store
	trail   *core.AuditTrail

	// epoch supplies the fencing token stamped on every push (nil or 0:
	// unfenced); fencedHook fires once per fenced outcome so the daemon
	// can step down; fenced counts fenced outcomes for Status.
	epoch      func() int64
	fencedHook func(now time.Duration, agent string)
	fenced     int64

	gPhase    *telemetry.Gauge
	ctrPromo  *telemetry.Counter
	ctrRollbk *telemetry.Counter

	// rolloutSpan is the root "rollout" span, open from Propose until
	// finishLocked; rolloutCtx parents every fan-out push, so one trace ID
	// follows the rollout coordinator -> agent -> canary verdict. Neither
	// is persisted: after a crash-Resume, pushes degrade to fresh roots.
	spans       *span.Recorder
	rolloutSpan *span.Active
	rolloutCtx  span.Context
}

// NewCoordinator builds a fleet rollout coordinator over a registry and
// a connection factory (zero Config fields select defaults).
func NewCoordinator(cfg RolloutConfig, reg *Registry, conns ConnFactory) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:    cfg,
		reg:    reg,
		conns:  conns,
		fanout: NewFanout(cfg.Fanout),
		st:     RolloutState{Phase: PhaseIdle},
	}
}

// Fanout exposes the push engine (breaker state inspection, telemetry).
func (c *Coordinator) Fanout() *Fanout { return c.fanout }

// Cohort returns a copy of a rollout wave's membership (wave 0 is the
// canary cohort); nil when no rollout is staged or the wave does not
// exist.
func (c *Coordinator) Cohort(wave int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wave < 0 || wave >= len(c.st.Cohorts) {
		return nil
	}
	return append([]string(nil), c.st.Cohorts[wave]...)
}

// SetStore attaches crash-safe rollout persistence. nil disables.
func (c *Coordinator) SetStore(s *Store) { c.mu.Lock(); c.store = s; c.mu.Unlock() }

// SetEpoch installs the fencing-epoch source (typically
// LeaseManager.FenceEpoch): every push and rollback then carries the
// returned epoch so agents can reject a deposed leader. nil (or a
// source returning 0) pushes unfenced.
func (c *Coordinator) SetEpoch(src func() int64) { c.mu.Lock(); c.epoch = src; c.mu.Unlock() }

// SetFencedHook installs a callback fired for every push an agent
// fenced off (stale epoch) — typically the daemon's step-down path.
// The hook runs without the coordinator's lock. nil disables.
func (c *Coordinator) SetFencedHook(hook func(now time.Duration, agent string)) {
	c.mu.Lock()
	c.fencedHook = hook
	c.mu.Unlock()
}

// SetAudit installs an audit trail for rollout decisions. nil disables.
func (c *Coordinator) SetAudit(trail *core.AuditTrail) { c.mu.Lock(); c.trail = trail; c.mu.Unlock() }

// SetTelemetry registers the coordinator's (and its fan-out's)
// instruments.
func (c *Coordinator) SetTelemetry(reg *telemetry.Registry) {
	c.fanout.SetTelemetry(reg)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gPhase = reg.Gauge(MetricFleetRolloutState)
	c.gPhase.Set(phaseGauge(c.st.Phase))
	c.ctrPromo = reg.Counter(MetricFleetRolloutsTotal, telemetry.L("decision", guard.DecisionPromoted))
	c.ctrRollbk = reg.Counter(MetricFleetRolloutsTotal, telemetry.L("decision", guard.DecisionRolledBack))
}

// SetSpans attaches a trace recorder to the coordinator and its fan-out:
// each rollout then emits a root "rollout" span whose context parents
// every per-agent push span and crosses the wire to the agents. nil
// disables.
func (c *Coordinator) SetSpans(rec *span.Recorder) {
	c.fanout.SetSpans(rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = rec
}

// Resume loads persisted rollout state (no-op without a store). An
// in-flight rollout continues from the phase it had reached: Pushed
// flags survive, so agents that already hold the candidate are not
// pushed twice, and a crash mid-rollback keeps draining the rollback.
func (c *Coordinator) Resume(now time.Duration) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return false, nil
	}
	st, ok, err := c.store.LoadRollout()
	if err != nil || !ok {
		return false, err
	}
	c.st = st
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(c.st.Phase))
	}
	if st.Active {
		c.record(now, fmt.Sprintf("rollout %q resumed in phase %s (wave %d/%d)",
			st.Version, st.Phase, st.Wave+1, len(st.Cohorts)))
	}
	return st.Active, nil
}

// State deep-copies the full rollout state machine — the replication
// checkpoint payload. Unlike Status it includes cohorts, per-agent
// Pushed/Restored flags, and both payloads, which is exactly what a
// promoting standby needs to resume the wave without double pushes.
func (c *Coordinator) State() RolloutState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.clone()
}

// Adopt installs a replicated rollout state, replacing the current one
// — the promotion path for a standby resuming from its last applied
// checkpoint (Resume is the same operation from the store instead).
// Returns whether the adopted rollout is active.
func (c *Coordinator) Adopt(now time.Duration, st RolloutState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	lastGood := c.st.LastGood
	c.st = st.clone()
	if c.st.LastGood == nil {
		c.st.LastGood = lastGood
	}
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(c.st.Phase))
	}
	if c.st.Active {
		c.record(now, fmt.Sprintf("rollout %q adopted in phase %s (wave %d/%d)",
			c.st.Version, c.st.Phase, c.st.Wave+1, len(c.st.Cohorts)))
	}
	c.persistLocked()
	return c.st.Active
}

// SeedLastGood installs the fleet last-good when the state machine
// records none yet — the agents' boot policy, or a last-good kept
// outside the rollout state by an older state directory. A recorded
// last-good always wins.
func (c *Coordinator) SeedLastGood(payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.LastGood == nil && payload != nil {
		c.st.LastGood = append([]byte(nil), payload...)
	}
}

// LastGood returns a copy of the fleet last-good payload (nil if none).
func (c *Coordinator) LastGood() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.LastGood == nil {
		return nil
	}
	return append([]byte(nil), c.st.LastGood...)
}

// Propose stages a versioned candidate payload on the fleet: the active
// agents are split into a canary cohort plus waves, and the next Ticks
// drive the push/observe/promote machine. The rollback target is the
// fleet last-good — the payload itself when there is none yet, which
// makes a first rollout's rollback a no-op rather than a nil push.
func (c *Coordinator) Propose(now time.Duration, version string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.Active {
		return fmt.Errorf("fleet: rollout of %q still in progress", c.st.Version)
	}
	if version == "" {
		return errors.New("fleet: empty candidate version")
	}
	agents := c.reg.Active()
	if len(agents) == 0 {
		return errors.New("fleet: no active agents")
	}
	cohorts := c.cohorts(agents)
	stable := c.st.LastGood
	if stable == nil {
		stable = payload
	}
	st := RolloutState{
		Active: true, Version: version, Payload: payload, StablePayload: stable,
		Phase: PhasePushing, Cohorts: cohorts, Agents: map[string]*AgentRollout{},
		LastDecision: c.st.LastDecision, LastReason: c.st.LastReason,
		Promotions: c.st.Promotions, Rollbacks: c.st.Rollbacks,
		LastGood: c.st.LastGood,
	}
	for w, cohort := range cohorts {
		for _, id := range cohort {
			st.Agents[id] = &AgentRollout{Wave: w}
		}
	}
	c.st = st
	root := c.spans.StartRoot(now, "rollout")
	root.SetAttr("version", version)
	root.SetAttr("agents", fmt.Sprint(len(agents)))
	root.SetAttr("cohorts", fmt.Sprint(len(cohorts)))
	c.rolloutSpan = root
	c.rolloutCtx = root.Context()
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(PhasePushing))
	}
	c.record(now, fmt.Sprintf("proposed %q: %d agents in %d cohorts (canary %d, window %d ticks)",
		version, len(agents), len(cohorts), len(cohorts[0]), c.cfg.WindowTicks))
	c.persistLocked()
	return nil
}

// cohorts splits active agents (sorted by ID) into the canary cohort
// plus up to cfg.Waves follow-up waves.
func (c *Coordinator) cohorts(agents []AgentRecord) [][]string {
	ids := make([]string, len(agents))
	for i, a := range agents {
		ids[i] = a.ID
	}
	n := int(math.Round(c.cfg.CanaryFraction * float64(len(ids))))
	if n < 1 {
		n = 1
	}
	if len(ids) > 1 && n >= len(ids) {
		n = len(ids) - 1 // keep at least one control agent when possible
	}
	cohorts := [][]string{ids[:n]}
	rest := ids[n:]
	if len(rest) == 0 {
		return cohorts
	}
	per := (len(rest) + c.cfg.Waves - 1) / c.cfg.Waves
	for len(rest) > 0 {
		k := per
		if k > len(rest) {
			k = len(rest)
		}
		cohorts = append(cohorts, rest[:k])
		rest = rest[k:]
	}
	return cohorts
}

// Tick advances the rollout by one coordinator cycle. Ticks release the
// lock around agent traffic, so a reentrancy latch drops overlapping
// Ticks (a slow fleet must not stack coordinator cycles).
func (c *Coordinator) Tick(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.st.Active || c.ticking {
		return
	}
	c.ticking = true
	defer func() { c.ticking = false }()
	switch c.st.Phase {
	case PhasePushing:
		c.tickPushingLocked(now)
	case PhaseObserving:
		c.tickObservingLocked(now)
	case PhaseRollingBack:
		c.tickRollbackLocked(now)
	}
}

// tickPushingLocked delivers the candidate to the current cohort's
// unpushed agents. Successful pushes record the agent's SLO baseline and
// local rollback count; agents still unreachable past the push deadline
// are degraded out of the wave.
func (c *Coordinator) tickPushingLocked(now time.Duration) {
	c.st.Ticks++
	targets := c.waveTargetsLocked(func(a *AgentRollout) bool { return !a.Pushed && !a.Degraded })
	outs := c.pushLocked(now, targets, c.st.Version, c.st.Payload)
	for _, o := range outs {
		if !o.OK {
			continue
		}
		a := c.st.Agents[o.Agent]
		a.Pushed = true
		a.BaseRollbacks = o.Status.Rollbacks
		if slo, err := c.sloOf(o.Agent); err == nil {
			a.Baseline = slo
		}
	}
	pending := c.waveTargetsLocked(func(a *AgentRollout) bool { return !a.Pushed && !a.Degraded })
	if len(pending) > 0 && c.st.Ticks < c.cfg.PushTicks {
		c.persistLocked()
		return
	}
	for _, rec := range pending {
		c.st.Agents[rec.ID].Degraded = true
		c.record(now, fmt.Sprintf("agent %s degraded out of wave %d (unreachable for %d push ticks)",
			rec.ID, c.st.Wave, c.st.Ticks))
	}
	if c.pushedInWaveLocked() == 0 {
		c.startRollbackLocked(now, fmt.Sprintf("wave %d fully unreachable", c.st.Wave))
		return
	}
	c.st.Phase = PhaseObserving
	c.st.Ticks = 0
	c.st.BaselineRef = c.controlSLOLocked()
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(PhaseObserving))
	}
	c.record(now, fmt.Sprintf("wave %d staged on %d agents; observing %d ticks",
		c.st.Wave, c.pushedInWaveLocked(), c.cfg.WindowTicks))
	c.persistLocked()
}

// tickObservingLocked watches the cohort: any agent whose local guard
// rolled the candidate back, or whose SLO degraded past the configured
// factors relative to the control group, triggers a fleet-level rollback
// of everything pushed so far. A clean window advances to the next wave
// or promotes.
func (c *Coordinator) tickObservingLocked(now time.Duration) {
	c.st.Ticks++
	// Guard-violation signal: an agent's own canary aborting the
	// candidate outranks any SLO reading.
	for _, rec := range c.allTargetsLocked(func(a *AgentRollout) bool { return a.Pushed && !a.Restored }) {
		cur, err := c.statusOf(rec.ID)
		if err != nil {
			continue // unreachable: judged by its peers' SLO, not absence
		}
		if a := c.st.Agents[rec.ID]; cur.Rollbacks > a.BaseRollbacks {
			c.startRollbackLocked(now, fmt.Sprintf("agent %s local guard rolled back the candidate (%s)",
				rec.ID, cur.LastReason))
			return
		}
	}
	// SLO verdict per cohort node, control group = not-yet-staged agents.
	ctrl := c.controlSLOLocked()
	for _, rec := range c.waveTargetsLocked(func(a *AgentRollout) bool { return a.Pushed }) {
		a := c.st.Agents[rec.ID]
		cur, err := c.sloOf(rec.ID)
		if err != nil {
			continue
		}
		v := guard.JudgeSLO(c.cfg.SLO, a.Baseline, cur, c.st.BaselineRef, ctrl)
		if v.Rollback {
			c.startRollbackLocked(now, fmt.Sprintf("agent %s: %s", rec.ID, v.Reason))
			return
		}
	}
	if c.st.Ticks < c.cfg.WindowTicks {
		c.persistLocked()
		return
	}
	// Window clean: next wave, or promotion after the last one.
	if c.st.Wave+1 >= len(c.st.Cohorts) {
		c.finishLocked(now, guard.DecisionPromoted,
			fmt.Sprintf("all %d waves clean over %d-tick windows", len(c.st.Cohorts), c.cfg.WindowTicks))
		return
	}
	c.st.Wave++
	c.st.Phase = PhasePushing
	c.st.Ticks = 0
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(PhasePushing))
	}
	c.record(now, fmt.Sprintf("wave %d clean; promoting to wave %d (%d agents)",
		c.st.Wave-1, c.st.Wave, len(c.st.Cohorts[c.st.Wave])))
	c.persistLocked()
}

// startRollbackLocked flips the machine into the rolling-back phase: the
// stable payload is re-proposed to every agent that got the candidate.
func (c *Coordinator) startRollbackLocked(now time.Duration, reason string) {
	c.st.Phase = PhaseRollingBack
	c.st.Ticks = 0
	c.st.RollbackReason = reason
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(PhaseRollingBack))
	}
	c.record(now, "rolling back: "+reason)
	c.tickRollbackLocked(now)
}

// tickRollbackLocked drains the rollback: agents whose own guard already
// restored last-good are marked restored without traffic; the rest get
// the stable payload re-proposed (their local canary may still hold the
// bad candidate, which 409s until its local window ends — retried every
// tick). Past the drain deadline the remaining agents are left to their
// own guards: their local last-good is intact by construction.
func (c *Coordinator) tickRollbackLocked(now time.Duration) {
	c.st.Ticks++
	rbVersion := "rollback-" + c.st.Version
	var pending []AgentRecord
	for _, rec := range c.allTargetsLocked(func(a *AgentRollout) bool { return a.Pushed && !a.Restored }) {
		a := c.st.Agents[rec.ID]
		if cur, err := c.statusOf(rec.ID); err == nil {
			if cur.Rollbacks > a.BaseRollbacks && !cur.Active {
				a.Restored = true // its own guard already rolled back
				continue
			}
			if !cur.Active && cur.Candidate == "" && cur.LastDecision == guard.DecisionRolledBack {
				a.Restored = true
				continue
			}
		}
		pending = append(pending, rec)
	}
	outs := c.pushLocked(now, pending, rbVersion, c.st.StablePayload)
	for _, o := range outs {
		if o.OK {
			c.st.Agents[o.Agent].Restored = true
		}
	}
	left := len(c.allTargetsLocked(func(a *AgentRollout) bool { return a.Pushed && !a.Restored }))
	deadline := c.cfg.PushTicks + c.cfg.WindowTicks + c.cfg.PushTicks
	if left > 0 && c.st.Ticks < deadline {
		c.persistLocked()
		return
	}
	reason := c.st.RollbackReason
	if left > 0 {
		reason += fmt.Sprintf("; %d agents unreachable during rollback keep last-good via their own guards", left)
	}
	c.finishLocked(now, guard.DecisionRolledBack, reason)
}

// finishLocked ends the rollout with a decision and persists it.
func (c *Coordinator) finishLocked(now time.Duration, decision, reason string) {
	if decision == guard.DecisionPromoted && c.st.Payload != nil {
		c.st.LastGood = c.st.Payload
	}
	c.st.Active = false
	c.st.Phase = PhaseIdle
	c.st.Payload = nil
	c.st.LastDecision = decision
	c.st.LastReason = reason
	c.st.RollbackReason = ""
	switch decision {
	case guard.DecisionPromoted:
		c.st.Promotions++
		if c.ctrPromo != nil {
			c.ctrPromo.Inc()
		}
	case guard.DecisionRolledBack:
		c.st.Rollbacks++
		if c.ctrRollbk != nil {
			c.ctrRollbk.Inc()
		}
	}
	if c.gPhase != nil {
		c.gPhase.Set(phaseGauge(PhaseIdle))
	}
	if c.rolloutSpan != nil {
		c.rolloutSpan.SetAttr("decision", decision)
		if decision == guard.DecisionRolledBack {
			c.rolloutSpan.End(errors.New(reason))
		} else {
			c.rolloutSpan.End(nil)
		}
		c.rolloutSpan = nil
		c.rolloutCtx = span.Context{}
	}
	c.record(now, fmt.Sprintf("%s %q: %s", decision, c.st.Version, reason))
	c.persistLocked()
}

// Status snapshots the rollout state.
func (c *Coordinator) Status() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FleetStatus{
		Active: c.st.Active, Phase: c.st.Phase, Wave: c.st.Wave,
		Cohorts: len(c.st.Cohorts), Ticks: c.st.Ticks,
		LastDecision: c.st.LastDecision, LastReason: c.st.LastReason,
		Promotions: c.st.Promotions, Rollbacks: c.st.Rollbacks,
		FencedPushes: c.fenced,
	}
	if c.st.Active {
		st.Version = c.st.Version
	}
	for _, a := range c.st.Agents {
		if a.Pushed {
			st.Pushed++
		}
		if a.Degraded {
			st.Degraded++
		}
		if a.Restored {
			st.Restored++
		}
	}
	return st
}

// --- helpers (all hold c.mu) ---

// pushLocked runs a fan-out round without holding the lock across the
// network calls. Every push carries the current fencing epoch; fenced
// outcomes are counted and reported through the fenced hook — the
// rollout never treats them as success, so a deposed coordinator
// cannot mark agents Pushed or Restored it no longer owns.
func (c *Coordinator) pushLocked(now time.Duration, targets []AgentRecord, version string, payload []byte) []PushOutcome {
	if len(targets) == 0 {
		return nil
	}
	conns := c.conns
	fan := c.fanout
	parent := c.rolloutCtx
	var epoch int64
	if c.epoch != nil {
		epoch = c.epoch()
	}
	hook := c.fencedHook
	c.mu.Unlock()
	outs := fan.PushEpoch(now, targets, conns, version, payload, parent, epoch)
	for _, o := range outs {
		if o.Fenced && hook != nil {
			hook(now, o.Agent)
		}
	}
	c.mu.Lock()
	for _, o := range outs {
		if o.Fenced {
			c.fenced++
			c.record(now, fmt.Sprintf("push of %q to %s fenced (stale epoch %d): %s", version, o.Agent, epoch, o.Err))
		}
	}
	return outs
}

// connFor resolves an agent's connection by ID via the registry.
func (c *Coordinator) connFor(id string) AgentClient {
	if rec, ok := c.reg.Lookup(id); ok {
		return c.conns(rec)
	}
	return c.conns(AgentRecord{ID: id})
}

// statusOf reads an agent's rollout status, releasing the lock around
// the network call (caller holds c.mu).
func (c *Coordinator) statusOf(id string) (guard.Status, error) {
	conn := c.connFor(id)
	c.mu.Unlock()
	st, err := conn.Status()
	c.mu.Lock()
	return st, err
}

// sloOf reads an agent's SLO, releasing the lock around the network
// call (caller holds c.mu).
func (c *Coordinator) sloOf(id string) (guard.SLOSample, error) {
	conn := c.connFor(id)
	c.mu.Unlock()
	s, err := conn.SLO()
	c.mu.Lock()
	return s, err
}

// waveTargetsLocked lists current-wave agents matching pred, as records.
func (c *Coordinator) waveTargetsLocked(pred func(*AgentRollout) bool) []AgentRecord {
	var out []AgentRecord
	if c.st.Wave >= len(c.st.Cohorts) {
		return nil
	}
	for _, id := range c.st.Cohorts[c.st.Wave] {
		if a := c.st.Agents[id]; a != nil && pred(a) {
			out = append(out, c.recordFor(id))
		}
	}
	return out
}

// allTargetsLocked lists agents from every wave matching pred.
func (c *Coordinator) allTargetsLocked(pred func(*AgentRollout) bool) []AgentRecord {
	var out []AgentRecord
	for _, cohort := range c.st.Cohorts {
		for _, id := range cohort {
			if a := c.st.Agents[id]; a != nil && pred(a) {
				out = append(out, c.recordFor(id))
			}
		}
	}
	return out
}

// recordFor resolves an agent record (falling back to a bare ID for
// agents that vanished from the registry mid-rollout).
func (c *Coordinator) recordFor(id string) AgentRecord {
	if rec, ok := c.reg.Lookup(id); ok {
		return rec
	}
	return AgentRecord{ID: id}
}

// pushedInWaveLocked counts current-wave agents holding the candidate.
func (c *Coordinator) pushedInWaveLocked() int {
	n := 0
	if c.st.Wave >= len(c.st.Cohorts) {
		return 0
	}
	for _, id := range c.st.Cohorts[c.st.Wave] {
		if a := c.st.Agents[id]; a != nil && a.Pushed {
			n++
		}
	}
	return n
}

// controlSLOLocked aggregates the SLO of the control group: agents in
// later waves that have not been staged (the fleet-level analogue of the
// per-node canary's control slots). Empty control (last wave) returns
// OK=false, so JudgeSLO falls back to judging against the agent's own
// baseline alone.
func (c *Coordinator) controlSLOLocked() guard.SLOSample {
	targets := c.allTargetsLocked(func(a *AgentRollout) bool { return !a.Pushed && !a.Degraded })
	var n int
	var lat, thr float64
	for _, rec := range targets {
		conn := c.connFor(rec.ID)
		c.mu.Unlock()
		s, err := conn.SLO()
		c.mu.Lock()
		if err != nil || !s.OK {
			continue
		}
		n++
		lat += s.LatencyP95
		thr += s.Throughput
	}
	if n == 0 {
		return guard.SLOSample{}
	}
	return guard.SLOSample{LatencyP95: lat / float64(n), Throughput: thr / float64(n), OK: true}
}

// persistLocked saves the rollout state through the store.
func (c *Coordinator) persistLocked() {
	if c.store == nil {
		return
	}
	if err := c.store.SaveRollout(c.st); err != nil && c.trail != nil {
		c.trail.Record(core.AuditEvent{Kind: AuditKindFleet, Outcome: "WARNING: persisting rollout failed: " + err.Error()})
	}
}

// record emits a fleet audit event (caller holds c.mu).
func (c *Coordinator) record(now time.Duration, outcome string) {
	if c.trail != nil {
		c.trail.Record(core.AuditEvent{At: now, Kind: AuditKindFleet, Outcome: outcome})
	}
}
