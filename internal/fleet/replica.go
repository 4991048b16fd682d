package fleet

import (
	"fmt"
	"sync/atomic"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// ReplicaConfig assembles one coordinator replica. Everything with side
// effects is injected: the agent connections, the persistent store, the
// peers (AddPeer), and the clock (every method takes now), so the same
// replica runs in lachesis-fleet, the harness experiments and the dst
// simulation.
type ReplicaConfig struct {
	// ID is the replica's HA identity (the lease holder name).
	ID string
	// LeaseTTL is the leader-lease lifetime (zero selects 3s).
	LeaseTTL time.Duration
	// Registry and Rollout tune the agent registry and the fleet canary.
	Registry RegistryConfig
	Rollout  RolloutConfig
	// Conns resolves agent connections for the fan-out.
	Conns ConnFactory
	// Store persists lease, registry, rollout and applied checkpoints
	// (nil keeps everything in memory). A replica built over a store
	// that already holds state is a warm restart.
	Store *Store
	// Standby starts the replica as a follower: it applies checkpoints
	// and promotes only when the observed leader lease expires or is
	// released. Otherwise it acquires the lease at construction.
	Standby bool
	// LastGood seeds the fleet last-good when the rollout state records
	// none (the agents' boot policy); nil leaves the first rollout's
	// rollback target to the candidate itself.
	LastGood []byte
	// Audit, Telemetry and Spans are optional instrumentation; nil
	// attaches none.
	Audit     *core.AuditTrail
	Telemetry *telemetry.Registry
	Spans     *span.Recorder
}

// TickReport is what one Replica.Tick did, for callers that log the
// replica's transitions.
type TickReport struct {
	// Promoted: this standby took over the lease, at Epoch.
	Promoted bool
	Epoch    int64
	// Suspected and Evicted are the agent leases the sweep moved.
	Suspected, Evicted []string
	// Deposed: a fenced push made this leader step down mid-tick.
	Deposed bool
	// Ended: the rollout finished this tick with Decision and Reason.
	Ended            bool
	Decision, Reason string
}

// Replica is one fleet coordinator: the lease manager, registry,
// rollout coordinator, follower and replicator, and the tick that
// drives them. A leader renews its lease, sweeps the registry, advances
// the rollout and publishes a checkpoint to its peers; a standby
// observes its peers' leases and promotes itself, adopting its last
// applied checkpoint, when the leader's lease expires.
//
// Tick, Shutdown and Failovers belong to the one goroutine driving the
// replica; every other method is safe from any goroutine (the HTTP
// handlers), because the components carry their own locks.
type Replica struct {
	id    string
	store *Store
	trail *core.AuditTrail

	lm   *LeaseManager
	reg  *Registry
	co   *Coordinator
	fol  *Follower
	repl *Replicator

	ctrFailovers *telemetry.Counter
	proposals    atomic.Int64

	// Transition bookkeeping of the driving goroutine: Tick reports a
	// rollout end or a deposition as a change against these.
	failovers  int
	prevActive bool
	deposSeen  int64
}

// NewReplica builds a replica at local time now. With a store it
// restores the persisted lease (so a new acquisition bumps past every
// epoch a previous incarnation saw), registry and rollout first; then,
// unless cfg.Standby, it acquires the lease once.
func NewReplica(now time.Duration, cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{id: cfg.ID, store: cfg.Store, trail: cfg.Audit}
	r.lm = NewLeaseManager(LeaseConfig{ID: cfg.ID, TTL: cfg.LeaseTTL})
	r.reg = NewRegistry(cfg.Registry)
	r.co = NewCoordinator(cfg.Rollout, r.reg, cfg.Conns)
	r.fol = NewFollower(cfg.Store)
	r.repl = NewReplicator()
	if cfg.Audit != nil {
		r.lm.SetAudit(cfg.Audit)
		r.reg.SetAudit(cfg.Audit)
		r.co.SetAudit(cfg.Audit)
		r.repl.SetAudit(cfg.Audit)
	}
	if cfg.Telemetry != nil {
		r.lm.SetTelemetry(cfg.Telemetry)
		r.reg.SetTelemetry(cfg.Telemetry)
		r.co.SetTelemetry(cfg.Telemetry)
		r.repl.SetTelemetry(cfg.Telemetry)
		r.ctrFailovers = cfg.Telemetry.Counter(MetricFleetFailoversTotal)
	}
	if cfg.Spans != nil {
		r.co.SetSpans(cfg.Spans)
	}
	// Fencing: every push carries our lease epoch, and an agent rejecting
	// it (it has seen a newer leader) deposes us on the spot.
	r.co.SetEpoch(r.lm.FenceEpoch)
	r.co.SetFencedHook(func(now time.Duration, agent string) { r.lm.Deposed(now, agent) })
	if cfg.Store != nil {
		r.lm.SetStore(cfg.Store)
		r.reg.SetStore(cfg.Store)
		r.co.SetStore(cfg.Store)
	}
	if err := r.lm.Restore(now); err != nil {
		return nil, fmt.Errorf("restore lease: %w", err)
	}
	if err := r.reg.Restore(now); err != nil {
		return nil, fmt.Errorf("restore registry: %w", err)
	}
	if _, err := r.co.Resume(now); err != nil {
		return nil, fmt.Errorf("resume rollout: %w", err)
	}
	r.co.SeedLastGood(cfg.LastGood)
	if !cfg.Standby {
		r.lm.Acquire(now)
	}
	r.prevActive = r.co.Status().Active
	r.deposSeen = r.lm.Depositions()
	return r, nil
}

// Registry is the replica's agent registry (registration and heartbeats
// arrive through it).
func (r *Replica) Registry() *Registry { return r.reg }

// Coordinator is the replica's rollout coordinator (status, state,
// cohorts, fan-out).
func (r *Replica) Coordinator() *Coordinator { return r.co }

// Follower is the replica's checkpoint follower.
func (r *Replica) Follower() *Follower { return r.fol }

// Lease snapshots the replica's lease view.
func (r *Replica) Lease() LeaseView { return r.lm.View() }

// Leading reports whether the replica holds the lease.
func (r *Replica) Leading() bool { return r.lm.Leading() }

// AddPeer registers (or replaces) a peer coordinator under name.
func (r *Replica) AddPeer(name string, pc PeerClient) { r.repl.AddPeer(name, pc) }

// Peer returns the peer registered under name (nil if absent).
func (r *Replica) Peer(name string) PeerClient { return r.repl.Peer(name) }

// Failovers counts this replica's standby promotions.
func (r *Replica) Failovers() int { return r.failovers }

// Tick runs one coordinator cycle and reports its transitions. A
// standby polls its peers' leases and promotes when the observed lease
// is stale. A leader renews, sweeps, advances the rollout and — unless
// a fenced push deposed it mid-tick — publishes a checkpoint.
func (r *Replica) Tick(now time.Duration) TickReport {
	var rep TickReport
	if !r.lm.Leading() {
		for _, name := range r.repl.Peers() {
			if pc := r.repl.Peer(name); pc != nil {
				if info, err := pc.Lease(); err == nil {
					r.lm.Observe(info, now)
				}
			}
		}
		if r.lm.Expired(now) {
			rep.Promoted = true
			rep.Epoch = r.promote(now)
		}
		return rep
	}
	r.lm.Renew(now)
	rep.Suspected, rep.Evicted = r.reg.Sweep(now)
	r.co.Tick(now)
	if d := r.lm.Depositions(); d > r.deposSeen {
		r.deposSeen = d
		rep.Deposed = true
	}
	st := r.co.Status()
	if r.prevActive && !st.Active {
		rep.Ended = true
		rep.Decision, rep.Reason = st.LastDecision, st.LastReason
	}
	r.prevActive = st.Active
	if r.lm.Leading() {
		r.publish(now, r.lm.Info())
	}
	return rep
}

// promote is the standby takeover: acquire the lease with a
// bumped epoch and adopt the last applied checkpoint — registry leases
// re-anchored at now, the rollout resumed exactly where the old leader
// left it (Pushed flags plus the agents' idempotent 409 handshake
// guarantee no double pushes). Without a checkpoint the state restored
// at construction stands.
func (r *Replica) promote(now time.Duration) int64 {
	info := r.lm.Acquire(now)
	r.failovers++
	if r.ctrFailovers != nil {
		r.ctrFailovers.Inc()
	}
	active := false
	if cp, ok := r.fol.Last(); ok {
		r.reg.Adopt(now, cp.Registry)
		active = r.co.Adopt(now, cp.Rollout)
		r.prevActive = active
	}
	r.record(now, fmt.Sprintf("standby promoted to leader (epoch %d, rollout active: %v)", info.Epoch, active))
	return info.Epoch
}

// Propose stages a candidate payload fleet-wide; an empty version is
// numbered "fleet-N". The rollback target is the fleet last-good.
// Callers check leadership first: a standby's rollout is never ticked.
func (r *Replica) Propose(now time.Duration, version string, payload []byte) error {
	if version == "" {
		version = fmt.Sprintf("fleet-%d", r.proposals.Add(1))
	}
	return r.co.Propose(now, version, payload)
}

// ApplyCheckpoint is the receiving side of replication. Observing the
// checkpoint's lease heals split brain from either side: a newer epoch
// deposes us if we were leading, and if we still lead afterwards the
// sender is the stale leader — its stream is fenced with *FencedError
// exactly like a stale push. Otherwise the follower applies it.
func (r *Replica) ApplyCheckpoint(now time.Duration, cp Checkpoint) error {
	r.lm.Observe(cp.Lease, now)
	if v := r.lm.View(); v.Leading {
		return &FencedError{Agent: r.id, Have: v.Epoch, Got: cp.Lease.Epoch}
	}
	return r.fol.Apply(cp)
}

// Shutdown takes the final state checkpoint: a leader releases its
// lease and publishes the release (a standby promotes at once instead
// of waiting out the TTL), and registry and rollout are persisted.
func (r *Replica) Shutdown(now time.Duration) {
	if r.lm.Leading() {
		r.publish(now, r.lm.Release(now))
	}
	if r.store != nil {
		if err := r.store.SaveRegistry(r.reg.Agents()); err != nil {
			r.record(now, "WARNING: final registry checkpoint failed: "+err.Error())
		}
		if err := r.store.SaveRollout(r.co.State()); err != nil {
			r.record(now, "WARNING: final rollout checkpoint failed: "+err.Error())
		}
	}
	r.record(now, "shutdown: final state checkpoint taken")
}

// publish streams a full-state checkpoint under lease to every peer.
func (r *Replica) publish(now time.Duration, lease LeaseInfo) {
	if len(r.repl.Peers()) == 0 {
		return
	}
	r.repl.Publish(now, Checkpoint{Lease: lease, Registry: r.reg.Agents(), Rollout: r.co.State()})
}

// record emits a fleet audit event when a trail is attached.
func (r *Replica) record(now time.Duration, outcome string) {
	if r.trail != nil {
		r.trail.Record(core.AuditEvent{At: now, Kind: AuditKindFleet, Outcome: outcome})
	}
}
