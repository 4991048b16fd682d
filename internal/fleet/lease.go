package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/guard"
	"lachesis/internal/telemetry"
)

// EpochHeader carries the leader's fencing epoch on policy pushes
// (coordinator -> agent POST /policy) and on coordinator lease/register
// responses (so agents and peers learn the current epoch). Absent or
// zero means "unfenced": a local operator proposal, which is always
// admitted.
const EpochHeader = "X-Lachesis-Epoch"

// FencedError reports that a push was rejected because it carried a
// stale fencing epoch: the receiver has already seen a newer leader.
// It is NOT transient — retrying the same epoch can never succeed, so
// the fan-out surfaces it immediately and the deposed coordinator must
// step down instead of retrying.
type FencedError struct {
	// Agent is the rejecting agent's ID when known.
	Agent string
	// Have is the newest epoch the receiver has observed (0 if unknown,
	// e.g. on the client side of an HTTP 403).
	Have int64
	// Got is the stale epoch the rejected push carried.
	Got int64
	// Body is the raw rejection body for HTTP rejections.
	Body string
}

// Error implements error.
func (e *FencedError) Error() string {
	who := e.Agent
	if who == "" {
		who = "agent"
	}
	if e.Have > 0 {
		return fmt.Sprintf("fleet: %s: fenced: push epoch %d < observed epoch %d", who, e.Got, e.Have)
	}
	if e.Body != "" {
		return fmt.Sprintf("fleet: %s: fenced: push epoch %d rejected: %s", who, e.Got, e.Body)
	}
	return fmt.Sprintf("fleet: %s: fenced: push epoch %d rejected", who, e.Got)
}

// IsFenced reports whether err is (or wraps) a FencedError.
func IsFenced(err error) bool {
	var fe *FencedError
	return errors.As(err, &fe)
}

// FencedAgent is an optional extension of AgentClient: clients that can
// carry a fencing epoch alongside a policy push implement it. The
// HTTPAgent sends the epoch as the EpochHeader request header; the
// harness's in-process nodes run it through their EpochGate directly.
// Epoch 0 must behave exactly like ProposeTraced (unfenced).
type FencedAgent interface {
	// ProposeFenced is ProposeTraced plus the fencing epoch of the
	// pushing leader's lease.
	ProposeFenced(payload []byte, traceparent string, epoch int64) (guard.Status, error)
}

// LeaseInfo is the leader lease as published on GET /lease, inside
// replication checkpoints, and in the persisted lease file. Staleness
// is never judged by comparing clocks across processes: RenewedSeq
// increments on every renewal, and each observer tracks, against its
// own clock, how long ago the (Epoch, RenewedSeq) pair last advanced.
type LeaseInfo struct {
	// Epoch is the fencing token: it increases by at least one on every
	// acquisition, so of two leaders the one with the higher epoch wins.
	Epoch int64 `json:"epoch"`
	// Holder is the coordinator ID holding the lease.
	Holder string `json:"holder,omitempty"`
	// RenewedSeq increments on every renewal by the holder.
	RenewedSeq int64 `json:"renewed_seq"`
	// TTLMs is the holder's declared lease TTL: observers that see no
	// renewal for this long (on their own clock) treat the lease as
	// expired.
	TTLMs int64 `json:"ttl_ms"`
	// Released marks a graceful abdication: observers may promote
	// immediately instead of waiting out the TTL.
	Released bool `json:"released,omitempty"`
}

// TTL returns the lease's declared TTL as a duration.
func (l LeaseInfo) TTL() time.Duration { return time.Duration(l.TTLMs) * time.Millisecond }

// newer reports whether o advances on l (higher epoch, or same epoch
// with a higher renewal sequence or a fresh release flag).
func (l LeaseInfo) newer(o LeaseInfo) bool {
	if o.Epoch != l.Epoch {
		return o.Epoch > l.Epoch
	}
	return o.RenewedSeq > l.RenewedSeq || (o.Released && !l.Released)
}

// LeaseConfig tunes a coordinator's leader-lease state machine.
type LeaseConfig struct {
	// ID is this coordinator's stable identity (lease holder name).
	ID string
	// TTL is the lease lifetime observers wait out before declaring the
	// leader dead (default 3s). The leader must renew (tick) well inside
	// it.
	TTL time.Duration
}

// LeaseManager is one coordinator's view of the fleet leader lease. It
// is both sides of the protocol: when leading it renews and publishes
// the lease; when standing by it observes the leader's lease (via
// replication checkpoints or GET /lease polls) and reports expiry so
// the daemon can promote. Epochs are monotonic across restarts when a
// Store is attached — the persisted lease file (fsync'd atomic rename,
// same ritual as the registry) anchors the next acquisition above
// every epoch this process has ever seen.
type LeaseManager struct {
	cfg LeaseConfig

	mu      sync.Mutex
	leading bool
	cur     LeaseInfo // our lease while leading
	seen    LeaseInfo // newest lease observed from anyone (incl. our own)
	seenAt  time.Duration
	store   *Store
	trail   *core.AuditTrail

	depositions int64

	gLeader *telemetry.Gauge
	gEpoch  *telemetry.Gauge
}

// NewLeaseManager builds a lease state machine (zero TTL selects 3s).
// The manager starts as a standby with its staleness clock anchored at
// 0; call Restore at startup to anchor it at the current instant and
// load any persisted epoch.
func NewLeaseManager(cfg LeaseConfig) *LeaseManager {
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	return &LeaseManager{cfg: cfg}
}

// SetStore attaches crash-safe lease persistence: acquisitions and
// renewals are saved, and Restore loads the file so epochs stay
// monotonic across restarts. nil disables.
func (m *LeaseManager) SetStore(s *Store) { m.mu.Lock(); m.store = s; m.mu.Unlock() }

// SetAudit installs an audit trail for lease transitions. nil disables.
func (m *LeaseManager) SetAudit(trail *core.AuditTrail) { m.mu.Lock(); m.trail = trail; m.mu.Unlock() }

// SetTelemetry registers the lease gauges: leader state (1 leading,
// 0 standby) and the current epoch.
func (m *LeaseManager) SetTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gLeader = reg.Gauge(MetricFleetLeaderState)
	m.gEpoch = reg.Gauge(MetricFleetLeaseEpoch)
	m.exportLocked()
}

// Restore anchors the staleness clock at now and, with a store
// attached, loads the persisted lease so the next acquisition bumps
// past every epoch a previous incarnation held or observed. A restart
// never resumes leadership directly — the lease file proves what epoch
// we reached, not that the lease is still ours.
func (m *LeaseManager) Restore(now time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seenAt = now
	if m.store == nil {
		return nil
	}
	info, ok, err := m.store.LoadLease()
	if err != nil {
		return err
	}
	if ok && m.seen.newer(info) {
		m.seen = info
	}
	return nil
}

// Acquire takes the lease with an epoch strictly above every epoch this
// manager has held or observed, persists it, and switches to leading.
// Exactly-one-leader rests on observation, not mutual exclusion: a
// standby only calls Acquire after the previous lease expired or was
// released, and fencing epochs make the overlap window safe when it
// guesses wrong (split brain).
func (m *LeaseManager) Acquire(now time.Duration) LeaseInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch := m.seen.Epoch
	if m.cur.Epoch > epoch {
		epoch = m.cur.Epoch
	}
	m.cur = LeaseInfo{
		Epoch:      epoch + 1,
		Holder:     m.cfg.ID,
		RenewedSeq: 1,
		TTLMs:      m.cfg.TTL.Milliseconds(),
	}
	m.leading = true
	m.seen = m.cur
	m.seenAt = now
	m.persistLocked()
	m.record(now, fmt.Sprintf("lease acquired by %s (epoch %d, ttl %v)", m.cfg.ID, m.cur.Epoch, m.cfg.TTL))
	m.exportLocked()
	return m.cur
}

// Renew advances the lease's renewal sequence (leader tick). A no-op
// when not leading.
func (m *LeaseManager) Renew(now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading {
		return
	}
	m.cur.RenewedSeq++
	m.seen = m.cur
	m.seenAt = now
	m.persistLocked()
}

// Release abdicates gracefully: the lease is marked released and
// persisted, leadership drops, and the returned info should be
// published to peers so a standby promotes immediately instead of
// waiting out the TTL.
func (m *LeaseManager) Release(now time.Duration) LeaseInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading {
		return m.seen
	}
	m.cur.Released = true
	m.leading = false
	m.seen = m.cur
	m.seenAt = now
	m.persistLocked()
	m.record(now, fmt.Sprintf("lease released by %s (epoch %d)", m.cfg.ID, m.cur.Epoch))
	m.exportLocked()
	return m.cur
}

// Observe folds in a lease seen from a peer (GET /lease poll or a
// replication checkpoint). Advancing observations reset the staleness
// clock. Observing an epoch above our own while leading means another
// coordinator won a newer lease: we are deposed and step down —
// returned as true so the daemon can demote itself.
func (m *LeaseManager) Observe(info LeaseInfo, now time.Duration) (deposed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen.newer(info) {
		m.seen = info
		m.seenAt = now
		m.persistLocked()
	}
	if m.leading && info.Epoch > m.cur.Epoch {
		deposed = true
		m.stepDownLocked(now, fmt.Sprintf("observed newer lease (epoch %d > ours %d, holder %s)",
			info.Epoch, m.cur.Epoch, info.Holder))
	}
	return deposed
}

// Deposed handles direct fencing feedback: an agent rejected our push
// because it has seen a newer epoch. While leading this steps down
// immediately (split-brain healing) and returns true.
func (m *LeaseManager) Deposed(now time.Duration, agent string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading {
		return false
	}
	m.stepDownLocked(now, fmt.Sprintf("push fenced by agent %s: a newer leader exists", agent))
	return true
}

// stepDownLocked drops leadership without releasing the lease (the
// newer leader already superseded it).
func (m *LeaseManager) stepDownLocked(now time.Duration, reason string) {
	m.leading = false
	m.depositions++
	m.record(now, fmt.Sprintf("stepping down (epoch %d): %s", m.cur.Epoch, reason))
	m.exportLocked()
}

// Expired reports, from this observer's own clock, whether the last
// observed lease is stale: released, or not renewed within its TTL
// (falling back to our configured TTL when the leader declared none).
// Always false while leading.
func (m *LeaseManager) Expired(now time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.leading {
		return false
	}
	if m.seen.Released {
		return true
	}
	ttl := m.seen.TTL()
	if ttl <= 0 {
		ttl = m.cfg.TTL
	}
	return now-m.seenAt > ttl
}

// Leading reports whether this coordinator currently holds the lease.
func (m *LeaseManager) Leading() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leading
}

// LeaseView is one coordinator's lease state at a glance — the JSON
// shape of GET /lease. The embedded lease marshals flat, so a peer's
// HTTPPeer decodes it straight into a LeaseInfo.
type LeaseView struct {
	// LeaseInfo is our lease while leading, else the newest observed.
	LeaseInfo
	// Leading reports whether this coordinator holds the lease.
	Leading bool `json:"leading"`
	// ID is this coordinator's HA identity.
	ID string `json:"id"`
	// HighWater is the newest epoch ever held or observed. Unlike the
	// lease epoch — which a deposed leader's view moves off its own —
	// it only ratchets: within a process because observations fold in
	// through newer() and acquisitions advance past it, and across a
	// restart because every ratchet is persisted and re-anchors the next
	// acquisition. Monotonicity checkers (the dst harness's
	// epoch-monotonic invariant) watch this.
	HighWater int64 `json:"high_water_epoch"`
}

// View snapshots the lease state under one lock.
func (m *LeaseManager) View() LeaseView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := LeaseView{LeaseInfo: m.seen, Leading: m.leading, ID: m.cfg.ID, HighWater: m.seen.Epoch}
	if m.leading {
		v.LeaseInfo = m.cur
	}
	if m.cur.Epoch > v.HighWater {
		v.HighWater = m.cur.Epoch
	}
	return v
}

// Info returns the lease to publish on GET /lease: our own while
// leading, else the newest observed one.
func (m *LeaseManager) Info() LeaseInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.leading {
		return m.cur
	}
	return m.seen
}

// FenceEpoch returns the epoch to stamp on fan-out pushes: our lease's
// epoch while leading, 0 (unfenced — but a standby never pushes)
// otherwise.
func (m *LeaseManager) FenceEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.leading {
		return m.cur.Epoch
	}
	return 0
}

// Depositions returns how often this manager was deposed while leading
// (newer lease observed, or a push fenced).
func (m *LeaseManager) Depositions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.depositions
}

// persistLocked saves the newest lease view through the store. m.seen
// is the right record even while leading (Acquire/Renew/Release all
// mirror m.cur into it): persisting m.cur instead would let a leader
// that just observed a newer epoch write its own stale lease to disk,
// breaking epoch monotonicity across a restart.
func (m *LeaseManager) persistLocked() {
	if m.store == nil {
		return
	}
	if err := m.store.SaveLease(m.seen); err != nil && m.trail != nil {
		m.trail.Record(core.AuditEvent{Kind: AuditKindFleet, Outcome: "WARNING: persisting lease failed: " + err.Error()})
	}
}

// exportLocked refreshes the leader gauges (caller holds m.mu).
func (m *LeaseManager) exportLocked() {
	if m.gLeader == nil {
		return
	}
	if m.leading {
		m.gLeader.Set(1)
		m.gEpoch.Set(float64(m.cur.Epoch))
	} else {
		m.gLeader.Set(0)
		m.gEpoch.Set(float64(m.seen.Epoch))
	}
}

// record emits a fleet audit event (caller holds m.mu).
func (m *LeaseManager) record(now time.Duration, outcome string) {
	if m.trail != nil {
		m.trail.Record(core.AuditEvent{At: now, Kind: AuditKindFleet, Outcome: outcome})
	}
}

// EpochStore persists the highest fencing epoch an agent has observed.
// reconcile.Store implements it beside the agent's last-good policy, so
// fencing survives agent restarts.
type EpochStore interface {
	// SaveFleetEpoch durably records the epoch.
	SaveFleetEpoch(epoch int64) error
	// LoadFleetEpoch reads the recorded epoch; ok is false when none was
	// saved (or the file is corrupt — fencing degrades open rather than
	// blocking a node from ever accepting policy again).
	LoadFleetEpoch() (epoch int64, ok bool, err error)
}

// EpochGate is the agent side of fencing: it remembers the highest
// coordinator epoch this agent has observed and rejects pushes carrying
// an older one, so a deposed leader's stale writes can never clobber
// the new leader's rollout. Epoch 0 (no header) is always admitted —
// local operator proposals are unfenced by design; the threat model is
// a stale *coordinator*, not a hostile one.
type EpochGate struct {
	name string

	mu       sync.Mutex
	epoch    int64
	store    EpochStore
	trail    *core.AuditTrail
	rejected int64

	ctrRejects *telemetry.Counter
}

// NewEpochGate builds a gate for one agent (name appears in rejection
// errors and audit events) and loads the persisted epoch from store
// (nil store keeps the epoch in memory only).
func NewEpochGate(name string, store EpochStore) (*EpochGate, error) {
	g := &EpochGate{name: name, store: store}
	if store != nil {
		e, ok, err := store.LoadFleetEpoch()
		if err != nil {
			return nil, err
		}
		if ok {
			g.epoch = e
		}
	}
	return g, nil
}

// SetAudit installs an audit trail for fenced rejections. nil disables.
func (g *EpochGate) SetAudit(trail *core.AuditTrail) { g.mu.Lock(); g.trail = trail; g.mu.Unlock() }

// SetTelemetry registers the fenced-rejection counter.
func (g *EpochGate) SetTelemetry(reg *telemetry.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ctrRejects = reg.Counter(MetricFleetFencedRejectsTotal)
}

// Admit checks a push's fencing epoch: 0 is unfenced and always
// admitted; an epoch at or above the highest seen is admitted and
// ratchets (and persists) the high-water mark; a lower epoch returns a
// *FencedError. Persistence failure does not block admission — the
// ratchet stays in memory and a warning is recorded.
func (g *EpochGate) Admit(epoch int64) error {
	if epoch <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch {
		g.rejected++
		if g.ctrRejects != nil {
			g.ctrRejects.Inc()
		}
		err := &FencedError{Agent: g.name, Have: g.epoch, Got: epoch}
		if g.trail != nil {
			g.trail.Record(core.AuditEvent{Kind: AuditKindFleet, Outcome: "fenced: " + err.Error()})
		}
		return err
	}
	g.ratchetLocked(epoch)
	return nil
}

// Observe ratchets the high-water mark without admitting anything — the
// path for epochs learned out-of-band (register/heartbeat responses),
// where a stale value is simply ignored.
func (g *EpochGate) Observe(epoch int64) {
	if epoch <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ratchetLocked(epoch)
}

// ratchetLocked raises (never lowers) the stored epoch and persists it.
func (g *EpochGate) ratchetLocked(epoch int64) {
	if epoch <= g.epoch {
		return
	}
	g.epoch = epoch
	if g.store != nil {
		if err := g.store.SaveFleetEpoch(epoch); err != nil && g.trail != nil {
			g.trail.Record(core.AuditEvent{Kind: AuditKindFleet,
				Outcome: "WARNING: persisting fleet epoch failed: " + err.Error()})
		}
	}
}

// Epoch returns the highest epoch observed so far.
func (g *EpochGate) Epoch() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Rejected returns how many pushes this gate has fenced off.
func (g *EpochGate) Rejected() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rejected
}
