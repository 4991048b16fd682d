package agent

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/faults"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/span"
)

// Simulated node SLO baseline: p95 latency and throughput of a node
// enforcing a sane policy.
const (
	simBaseP95  = 0.010 // seconds
	simBaseTput = 1000  // tuples/s
)

// Event kinds a Sim reports through SimConfig.Events.
const (
	EventStaged     = "staged"
	EventPromoted   = "local-promote"
	EventRolledBack = "local-rollback"
	EventFenced     = "gate-reject"
)

// SimConfig shapes one simulated agent.
type SimConfig struct {
	// ID is the agent's fleet identity.
	ID string
	// Bindings is the number of heavy/light operator pairs, one binding
	// (and one canary slot) each.
	Bindings int
	// Window is the local canary window in decision cycles.
	Window int
	// Unfenced builds the proposal path without its epoch gate — the
	// configuration lachesisd runs with no gate. Heartbeats still ratchet
	// the gate; only admission is off.
	Unfenced bool
	// OSOutages fail every kernel write inside the windows, judged on
	// Clock.
	OSOutages faults.Windows
	Clock     func() time.Duration
	// Spans traces the local canary (nil: untraced).
	Spans *span.Recorder
	// Events, when set, receives the agent's transitions (the Event*
	// kinds), called under the agent's lock at its current time.
	Events func(now time.Duration, kind, detail string)
}

// Sim is one simulated lachesisd agent: a real core.Middleware with
// heavy/light operator pairs, a local canary controller fed by a
// node-wide SLO model, the shared proposal path behind an epoch gate,
// an audited in-memory OS, and an in-memory last-good store. It
// implements fleet.AgentClient, so coordinators talk to it the way they
// POST to a live daemon.
//
// The SLO model: each binding whose heavy operator is niced weaker than
// its light one is "inverted" and adds backlog; p95 grows as
// baseP95 * (1 + backlog) and throughput shrinks by the same factor. A
// node enforcing a sane policy drains one backlog unit per cycle.
// Canary and control slots share this one node-wide sample, so the
// local canary cannot convict a node-wide degradation — catching that
// is the fleet coordinator's job.
type Sim struct {
	id     string
	events func(now time.Duration, kind, detail string)

	// mu serializes the decision cycle and the coordinator's calls,
	// exactly like lachesisd's step/HTTP mutex; the canary's sampler and
	// policy-store callbacks run under it by construction.
	mu      sync.Mutex
	mw      *core.Middleware
	canary  *guard.Canary
	agent   *Agent
	gate    *fleet.EpochGate
	store   *memPolicyStore
	osi     *memOS
	audit   *core.MemorySink
	pairs   [][2]int // per binding: heavy tid, light tid
	now     time.Duration
	backlog float64
	peak    float64 // peak p95 factor observed
	// staged lists every staged payload in order.
	staged   []string
	stepErrs int
	// promotions/rollbacks mirror the canary counters so Tick can
	// report local decisions.
	promotions, rollbacks int64
}

var (
	_ fleet.AgentClient = (*Sim)(nil)
	_ fleet.TracedAgent = (*Sim)(nil)
	_ fleet.FencedAgent = (*Sim)(nil)
)

// simPolicy builds a named static policy — the same high-level policy
// plus transformation rule lachesisd runs.
func simPolicy(name string, pri core.LogicalSchedule) core.Policy {
	return core.Transformed(&core.StaticLogicalPolicy{PolicyName: name, Priorities: pri}, core.MaxPriorityRule)
}

// NewSim builds a simulated agent enforcing the stable heavy=10/light=1
// policy on every binding.
func NewSim(cfg SimConfig) (*Sim, error) {
	n := &Sim{id: cfg.ID, events: cfg.Events, osi: &memOS{nices: map[int]int{}},
		store: &memPolicyStore{}, audit: &core.MemorySink{}, peak: 1}
	n.gate, _ = fleet.NewEpochGate(cfg.ID, nil) // no store: cannot fail
	n.mw = core.NewMiddleware(nil)
	n.canary = guard.NewCanary(guard.Config{Fraction: 0.5, Window: cfg.Window})
	n.canary.SetSampler(func([]string) guard.SLOSample { return n.sloLocked() })
	n.canary.SetPolicyStore(n.store)
	if cfg.Spans != nil {
		n.canary.SetSpans(cfg.Spans)
	}
	gate := n.gate
	if cfg.Unfenced {
		gate = nil
	}
	n.agent = New(Config{ID: cfg.ID, Canary: n.canary, Gate: gate, Build: simPolicy})

	var osi core.OSInterface = n.osi
	if len(cfg.OSOutages) > 0 {
		osi = faults.WrapOS(osi, faults.OSPlan{Outages: cfg.OSOutages, Clock: cfg.Clock})
	}
	tr := core.NewNiceTranslator(core.AuditOS(osi, core.NewAuditTrail(64, n.audit)))
	drv := &simDriver{}
	stable := core.LogicalSchedule{"heavy": 10, "light": 1}
	for b := 0; b < cfg.Bindings; b++ {
		q := fmt.Sprintf("q%03d", b)
		hTid, lTid := 2*b+1, 2*b+2
		drv.entities = append(drv.entities,
			core.Entity{Name: q + ".heavy", Driver: "node", Query: q, Thread: hTid, Logical: []string{"heavy"}},
			core.Entity{Name: q + ".light", Driver: "node", Query: q, Thread: lTid, Logical: []string{"light"}},
		)
		n.pairs = append(n.pairs, [2]int{hTid, lTid})
		slot := n.canary.Slot(simPolicy(fmt.Sprintf("stable@%s/%s", cfg.ID, q), stable))
		if err := n.mw.Bind(core.Binding{
			Policy: slot, Translator: tr,
			Drivers: []core.Driver{drv}, Queries: []string{q},
			Period: time.Second,
		}); err != nil {
			return nil, fmt.Errorf("%s: bind %s: %w", cfg.ID, q, err)
		}
	}
	return n, nil
}

// sloLocked is the node-wide SLO sample (caller holds n.mu).
func (n *Sim) sloLocked() guard.SLOSample {
	f := 1 + n.backlog
	return guard.SLOSample{LatencyP95: simBaseP95 * f, Throughput: simBaseTput / f, OK: true}
}

// emit reports an event (caller holds n.mu).
func (n *Sim) emit(kind, detail string) {
	if n.events != nil {
		n.events(n.now, kind, detail)
	}
}

// Tick runs one decision cycle: apply the policies (a failed kernel
// write is retried next cycle), update the SLO model from the resulting
// nice ordering, then advance the local canary.
func (n *Sim) Tick(now time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.now = now
	if _, err := n.mw.Step(now); err != nil {
		n.stepErrs++
	}
	if inv := n.invertedLocked(); inv > 0 {
		n.backlog += float64(inv) / float64(len(n.pairs))
	} else if n.backlog > 0 {
		if n.backlog--; n.backlog < 0 {
			n.backlog = 0
		}
	}
	if f := 1 + n.backlog; f > n.peak {
		n.peak = f
	}
	n.canary.Tick(now)
	if n.events == nil {
		return
	}
	st := n.canary.Status()
	if st.Promotions > n.promotions {
		n.promotions = st.Promotions
		n.emit(EventPromoted, st.LastReason)
	}
	if st.Rollbacks > n.rollbacks {
		n.rollbacks = st.Rollbacks
		n.emit(EventRolledBack, st.LastReason)
	}
}

func (n *Sim) invertedLocked() int {
	inv := 0
	for _, p := range n.pairs {
		if n.osi.nice(p[0]) > n.osi.nice(p[1]) {
			inv++
		}
	}
	return inv
}

// Propose implements fleet.AgentClient (an unfenced, untraced POST
// /policy).
func (n *Sim) Propose(payload []byte) (guard.Status, error) {
	return n.ProposeFenced(payload, "", 0)
}

// ProposeTraced implements fleet.TracedAgent: the traceparent parents
// the local canary's stage span.
func (n *Sim) ProposeTraced(payload []byte, traceparent string) (guard.Status, error) {
	return n.ProposeFenced(payload, traceparent, 0)
}

// ProposeFenced implements fleet.FencedAgent: the full POST /policy
// path through the shared Agent, epoch gate first.
func (n *Sim) ProposeFenced(payload []byte, traceparent string, epoch int64) (guard.Status, error) {
	parent, _ := span.ParseTraceparent(traceparent)
	n.mu.Lock()
	defer n.mu.Unlock()
	name, err := n.agent.Propose(n.now, payload, parent, epoch)
	if err != nil {
		var fe *fleet.FencedError
		if errors.As(err, &fe) {
			n.emit(EventFenced, fmt.Sprintf("push epoch %d < observed %d", fe.Got, fe.Have))
		}
		return guard.Status{}, err
	}
	n.staged = append(n.staged, string(payload))
	n.emit(EventStaged, name)
	return n.canary.Status(), nil
}

// Status implements fleet.AgentClient.
func (n *Sim) Status() (guard.Status, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.canary.Status(), nil
}

// SLO implements fleet.AgentClient (the coordinator's /metrics scrape).
func (n *Sim) SLO() (guard.SLOSample, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sloLocked(), nil
}

// Gate is the agent's fencing gate (heartbeat responses ratchet it).
func (n *Sim) Gate() *fleet.EpochGate { return n.gate }

// Canary is the agent's local canary controller.
func (n *Sim) Canary() *guard.Canary { return n.canary }

// Staged counts how often payload was staged, and all stagings.
func (n *Sim) Staged(payload []byte) (of, total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.staged {
		if p == string(payload) {
			of++
		}
	}
	return of, len(n.staged)
}

// LastGood returns the agent's persisted last-good payload (nil if
// none).
func (n *Sim) LastGood() []byte {
	raw, ok, _ := n.store.LoadLastGoodPolicy()
	if !ok {
		return nil
	}
	return raw
}

// Inverted counts the bindings currently running heavy weaker than
// light.
func (n *Sim) Inverted() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.invertedLocked()
}

// PeakFactor is the highest p95 factor (1 + backlog) seen so far.
func (n *Sim) PeakFactor() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peak
}

// StepErrors counts decision cycles that failed.
func (n *Sim) StepErrors() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stepErrs
}

// AuditEvents returns every audited kernel write.
func (n *Sim) AuditEvents() []core.AuditEvent { return n.audit.Events() }

// Nices copies the kernel state: tid -> nice.
func (n *Sim) Nices() map[int]int {
	n.osi.mu.Lock()
	defer n.osi.mu.Unlock()
	out := make(map[int]int, len(n.osi.nices))
	for k, v := range n.osi.nices {
		out[k] = v
	}
	return out
}

// memOS records nice values in memory and ignores cgroup operations;
// the SLO model reads the nices back.
type memOS struct {
	mu    sync.Mutex
	nices map[int]int
}

func (o *memOS) SetNice(tid, nice int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nices[tid] = nice
	return nil
}
func (o *memOS) EnsureCgroup(string) error    { return nil }
func (o *memOS) SetShares(string, int) error  { return nil }
func (o *memOS) MoveThread(int, string) error { return nil }

func (o *memOS) nice(tid int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nices[tid]
}

// memPolicyStore is an in-memory guard.PolicyStore, so callers can read
// exactly what the agent holds as last-good.
type memPolicyStore struct {
	mu   sync.Mutex
	raw  []byte
	have bool
}

func (s *memPolicyStore) SaveLastGoodPolicy(config []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raw = append([]byte(nil), config...)
	s.have = true
	return nil
}

func (s *memPolicyStore) LoadLastGoodPolicy() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.raw...), s.have, nil
}

// simDriver exposes the agent's operators; the static policies fetch no
// metrics.
type simDriver struct {
	entities []core.Entity
}

var _ core.Driver = (*simDriver)(nil)

func (d *simDriver) Name() string            { return "node" }
func (d *simDriver) Entities() []core.Entity { return d.entities }
func (d *simDriver) Provides(string) bool    { return false }
func (d *simDriver) Fetch(metric string, _ time.Duration) (core.EntityValues, error) {
	return nil, &core.UnknownMetricError{Metric: metric, Driver: "node"}
}
