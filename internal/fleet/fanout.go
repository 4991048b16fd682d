package fleet

import (
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/guard"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// Push outcome labels (telemetry label "outcome").
const (
	PushOK       = "ok"
	PushConflict = "conflict"
	PushSkipped  = "skipped"
	PushError    = "error"
	PushFenced   = "fenced"
)

// FanoutConfig tunes the push engine. Zero values select defaults.
type FanoutConfig struct {
	// Attempts per agent per push round (default 3). Only transient
	// failures (timeouts, refused connections) are retried.
	Attempts int
	// BaseBackoff / MaxBackoff / Jitter shape the retry delays through
	// the shared driver.RetryPolicy (defaults 100ms / 2s / 0.2).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Jitter      float64
	// BreakerThreshold consecutive failed push rounds open an agent's
	// circuit breaker (default 3); while open, push rounds skip the agent
	// until BreakerCooldown (default 10s) has elapsed, then one probe
	// round is allowed through. A flapping or crashed agent therefore
	// costs one skipped outcome per round instead of Attempts timeouts.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Parallel bounds concurrent per-agent pushes (default 8).
	Parallel int
	// Sleep and Rand are injectable for tests (nil: real time, shared
	// math/rand source).
	Sleep func(time.Duration)
	Rand  func() float64
}

func (c FanoutConfig) withDefaults() FanoutConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Parallel <= 0 {
		c.Parallel = 8
	}
	return c
}

// PushOutcome is the result of one agent's push in a round.
type PushOutcome struct {
	Agent string `json:"agent"`
	// OK: the agent accepted the payload (or idempotently already ran
	// this exact candidate — see Conflict).
	OK bool `json:"ok"`
	// Conflict: the agent had a different rollout in flight. Not OK; the
	// caller retries in a later round. When a conflict turned out to be
	// our own earlier push that the response to which was lost (the agent
	// reports our version in flight), OK is true and Conflict stays false.
	Conflict bool `json:"conflict,omitempty"`
	// Skipped: the agent's circuit breaker was open; no network calls.
	Skipped bool `json:"skipped,omitempty"`
	// Fenced: the agent rejected the push's fencing epoch because it has
	// observed a newer leader. Not retried — the pushing coordinator is
	// deposed and must step down.
	Fenced bool `json:"fenced,omitempty"`
	// Attempts actually made (0 when skipped).
	Attempts int `json:"attempts"`
	// Status is the agent's rollout status after an accepted push.
	Status guard.Status `json:"status,omitempty"`
	// Err holds the final error for failed pushes.
	Err string `json:"err,omitempty"`
}

// breaker is one agent's failure containment state.
type breaker struct {
	fails     int
	openUntil time.Duration
}

// Fanout pushes policy payloads to many agents in parallel, with
// retry/backoff per agent (shared driver.RetryPolicy) and a per-agent
// circuit breaker. Safe for concurrent use, though the coordinator
// drives it from a single tick loop.
type Fanout struct {
	cfg FanoutConfig

	mu       sync.Mutex
	breakers map[string]*breaker

	ctrPushOK     *telemetry.Counter
	ctrPushConf   *telemetry.Counter
	ctrPushSkip   *telemetry.Counter
	ctrPushErr    *telemetry.Counter
	ctrPushFenced *telemetry.Counter
	ctrRetries    *telemetry.Counter
	ctrOpens      *telemetry.Counter

	spans       *span.Recorder
	breakerHook func(now time.Duration, agent string)
}

// NewFanout builds a push engine (zero Config fields select defaults).
func NewFanout(cfg FanoutConfig) *Fanout {
	return &Fanout{cfg: cfg.withDefaults(), breakers: map[string]*breaker{}}
}

// SetTelemetry registers the fan-out's instruments.
func (f *Fanout) SetTelemetry(reg *telemetry.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ctrPushOK = reg.Counter(MetricFleetPushesTotal, telemetry.L("outcome", PushOK))
	f.ctrPushConf = reg.Counter(MetricFleetPushesTotal, telemetry.L("outcome", PushConflict))
	f.ctrPushSkip = reg.Counter(MetricFleetPushesTotal, telemetry.L("outcome", PushSkipped))
	f.ctrPushErr = reg.Counter(MetricFleetPushesTotal, telemetry.L("outcome", PushError))
	f.ctrPushFenced = reg.Counter(MetricFleetPushesTotal, telemetry.L("outcome", PushFenced))
	f.ctrRetries = reg.Counter(MetricFleetPushRetriesTotal)
	f.ctrOpens = reg.Counter(MetricFleetBreakerOpensTotal)
}

// SetSpans attaches a trace recorder: each per-agent push then emits a
// "push" span (child of the rollout context handed to PushEpoch), whose
// context crosses the HTTP hop as a Traceparent header for clients
// implementing TracedAgent. nil disables.
func (f *Fanout) SetSpans(rec *span.Recorder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spans = rec
}

// SetBreakerHook installs a callback fired when an agent's breaker opens
// (fresh open only, not an already-open refresh) — typically
// span.FlightRecorder.Trip. The hook runs with the fan-out's lock held
// and must not call back into the fan-out. nil disables.
func (f *Fanout) SetBreakerHook(hook func(now time.Duration, agent string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.breakerHook = hook
}

// BreakerOpen reports whether an agent's breaker is open at now.
func (f *Fanout) BreakerOpen(now time.Duration, id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.breakers[id]
	return b != nil && b.fails >= f.cfg.BreakerThreshold && now < b.openUntil
}

// Push delivers (version, payload) to every agent in parallel and
// returns one outcome per agent, in input order. Agents whose breaker is
// open are skipped without network calls; a conflicting agent that
// reports our version already in flight counts as an idempotent success
// (the earlier push worked, its response was lost).
func (f *Fanout) Push(now time.Duration, agents []AgentRecord, conns ConnFactory, version string, payload []byte) []PushOutcome {
	return f.PushEpoch(now, agents, conns, version, payload, span.Context{}, 0)
}

// PushEpoch is Push under a rollout trace context and a fencing epoch.
// Each agent's push becomes a "push" span child of parent, and its
// context rides the hop to TracedAgent clients as a traceparent (a zero
// parent, or no recorder, traces nothing). Clients implementing
// FencedAgent carry the epoch across the hop (the HTTPAgent as the
// EpochHeader request header) so agents can reject a deposed leader's
// stale pushes; epoch 0 pushes unfenced.
func (f *Fanout) PushEpoch(now time.Duration, agents []AgentRecord, conns ConnFactory, version string, payload []byte, parent span.Context, epoch int64) []PushOutcome {
	out := make([]PushOutcome, len(agents))
	sem := make(chan struct{}, f.cfg.Parallel)
	var wg sync.WaitGroup
	for i := range agents {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = f.pushOne(now, agents[i], conns, version, payload, parent, epoch)
		}(i)
	}
	wg.Wait()
	return out
}

// pushOne runs the breaker check, the retry loop, and the idempotency
// probe for a single agent.
func (f *Fanout) pushOne(now time.Duration, a AgentRecord, conns ConnFactory, version string, payload []byte, parent span.Context, epoch int64) PushOutcome {
	o := PushOutcome{Agent: a.ID}
	if f.BreakerOpen(now, a.ID) {
		o.Skipped = true
		f.count(f.ctrPushSkip)
		return o
	}
	act := f.recorder().StartChild(parent, now, "push")
	act.SetAttr("agent", a.ID)
	act.SetAttr("version", version)
	tp := ""
	if c := act.Context(); c.Valid() {
		tp = c.Traceparent()
	}
	conn := conns(a)
	traced, isTraced := conn.(TracedAgent)
	fenced, isFencer := conn.(FencedAgent)
	var st guard.Status
	err := driver.RetryPolicy{
		Attempts:  f.cfg.Attempts,
		BaseDelay: f.cfg.BaseBackoff,
		MaxDelay:  f.cfg.MaxBackoff,
		Jitter:    f.cfg.Jitter,
		Sleep:     f.cfg.Sleep,
		Rand:      f.cfg.Rand,
		OnRetry: func(int, error) {
			f.count(f.ctrRetries)
		},
	}.Do(func() error {
		o.Attempts++
		var perr error
		switch {
		case epoch > 0 && isFencer:
			st, perr = fenced.ProposeFenced(payload, tp, epoch)
		case isTraced && tp != "":
			st, perr = traced.ProposeTraced(payload, tp)
		default:
			st, perr = conn.Propose(payload)
		}
		return perr
	})
	switch {
	case err == nil:
		o.OK = true
		o.Status = st
	case IsFenced(err):
		o.Fenced = true
		o.Err = err.Error()
	case IsConflict(err):
		// The agent refused because a rollout is in flight. If that
		// rollout is OUR candidate, an earlier push (this round's lost
		// response, or a pre-crash coordinator's) already landed: success.
		if cur, serr := conn.Status(); serr == nil && cur.Candidate == version {
			o.OK = true
			o.Status = cur
		} else {
			o.Conflict = true
			o.Err = err.Error()
		}
	default:
		o.Err = err.Error()
	}
	switch {
	case o.OK:
		act.End(nil)
	default:
		act.End(err)
	}
	// Any answer that is not transient — a conflict, a fenced or a bad
	// request rejection — is a healthy agent saying no: it closes the
	// breaker like a success. Only transient failure (transport errors,
	// timeouts, 5xx) counts toward opening.
	f.settle(now, a.ID, !core.IsTransient(err))
	switch {
	case o.OK:
		f.count(f.ctrPushOK)
	case o.Fenced:
		f.count(f.ctrPushFenced)
	case o.Conflict:
		f.count(f.ctrPushConf)
	default:
		f.count(f.ctrPushErr)
	}
	return o
}

// settle updates the agent's breaker after a push round. Success closes
// the breaker; failure counts toward BreakerThreshold and (re-)opens it
// once reached — including the failed probe after a cooldown, which
// re-opens immediately.
func (f *Fanout) settle(now time.Duration, id string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.breakers[id]
	if b == nil {
		b = &breaker{}
		f.breakers[id] = b
	}
	if ok {
		b.fails = 0
		b.openUntil = 0
		return
	}
	b.fails++
	if b.fails >= f.cfg.BreakerThreshold {
		wasOpen := b.openUntil > now
		b.openUntil = now + f.cfg.BreakerCooldown
		if !wasOpen {
			if f.ctrOpens != nil {
				f.ctrOpens.Inc()
			}
			if f.breakerHook != nil {
				f.breakerHook(now, id)
			}
		}
	}
}

// recorder returns the attached span recorder (nil-safe: a nil
// *Recorder is a no-op recorder).
func (f *Fanout) recorder() *span.Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spans
}

// count increments a counter if telemetry is attached.
func (f *Fanout) count(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}
