package dst

import (
	"errors"
	"fmt"
	"time"

	"lachesis/internal/faults"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
	"lachesis/internal/span"
)

// agentConn is one replica->agent link: the fault injector for the union
// of the replica's agent-partition windows and the agent's own partition
// windows, plus push-outcome logging. Each conn owns its event buffer so
// the fan-out's concurrent push goroutines never interleave writes into
// a shared buffer (each goroutine targets one agent, so per-conn order
// is deterministic).
type agentConn struct {
	replica string
	agent   string
	inner   *faults.Agent
	buf     *eventBuffer
	// tickNo is written by the owning replica before its tick spawns the
	// fan-out goroutines (happens-before via goroutine start).
	tickNo int
}

var (
	_ fleet.AgentClient = (*agentConn)(nil)
	_ fleet.TracedAgent = (*agentConn)(nil)
	_ fleet.FencedAgent = (*agentConn)(nil)
)

func (c *agentConn) logPush(err error) {
	if err == nil {
		c.buf.add(c.tickNo, c.replica, EvPushOK, c.agent)
		return
	}
	var fe *fleet.FencedError
	var ce *fleet.ConflictError
	switch {
	case errors.As(err, &fe):
		c.buf.add(c.tickNo, c.replica, EvPushFenced,
			fmt.Sprintf("%s: epoch %d < %d", c.agent, fe.Got, fe.Have))
	case errors.As(err, &ce):
		c.buf.add(c.tickNo, c.replica, EvPushConflict, c.agent)
	default:
		c.buf.add(c.tickNo, c.replica, EvPushFail, fmt.Sprintf("%s: %v", c.agent, err))
	}
}

func (c *agentConn) Propose(payload []byte) (guard.Status, error) {
	st, err := c.inner.Propose(payload)
	c.logPush(err)
	return st, err
}

func (c *agentConn) ProposeTraced(payload []byte, traceparent string) (guard.Status, error) {
	st, err := c.inner.ProposeTraced(payload, traceparent)
	c.logPush(err)
	return st, err
}

func (c *agentConn) ProposeFenced(payload []byte, traceparent string, epoch int64) (guard.Status, error) {
	st, err := c.inner.ProposeFenced(payload, traceparent, epoch)
	c.logPush(err)
	return st, err
}

func (c *agentConn) Status() (guard.Status, error) { return c.inner.Status() }
func (c *agentConn) SLO() (guard.SLOSample, error) { return c.inner.SLO() }

// replica is one coordinator replica under test: a fleet.Replica — the
// lachesis-fleet daemon's own state machine — over a MemFS-backed store
// that survives crashes, ticked on a per-replica drifted clock. A crash
// drops the replica and everything unsynced; a restart builds a fresh
// standby over the same store.
type replica struct {
	id string
	w  *world
	rf ReplicaFaults

	fs    *reconcile.MemFS
	rep   *fleet.Replica
	conns map[string]*agentConn
	spans *span.Recorder
	// peerID/peer is this replica's fault-wrapped view of the other one,
	// re-added to every incarnation.
	peerID string
	peer   fleet.PeerClient

	// alive=false is a crashed replica: no ticks, peer calls fail.
	alive bool
	// failovers counts standby promotions across incarnations.
	failovers int

	buf *eventBuffer
}

// local maps global virtual time onto this replica's drifted clock. All
// replica-internal staleness judgements (lease expiry, registry sweeps,
// rollout deadlines) run on it; fault windows stay on global time.
func (r *replica) local(now time.Duration) time.Duration {
	return time.Duration(float64(now) * r.rf.DriftRate)
}

// build constructs an incarnation over the persistent store at local
// time localNow.
func (r *replica) build(localNow time.Duration, standby bool) (*fleet.Replica, error) {
	s := r.w.sched
	return fleet.NewReplica(localNow, fleet.ReplicaConfig{
		ID:       r.id,
		LeaseTTL: time.Duration(s.TTLTicks) * time.Second,
		Registry: fleet.RegistryConfig{HeartbeatInterval: time.Second, SuspectAfter: 2, EvictAfter: 5},
		Rollout: fleet.RolloutConfig{
			CanaryFraction: 0.25, Waves: s.Waves,
			WindowTicks: s.WindowTicks, PushTicks: s.PushTicks,
			Fanout: fleet.FanoutConfig{
				Attempts: 2, BreakerThreshold: 100, BreakerCooldown: 30 * time.Second,
				Sleep: func(time.Duration) {},
			},
		},
		Conns: func(a fleet.AgentRecord) fleet.AgentClient {
			if c, ok := r.conns[a.ID]; ok {
				return c
			}
			return nil
		},
		Store:    fleet.NewStore(r.fs, nil),
		Standby:  standby,
		LastGood: stablePayload,
		Spans:    r.spans,
	})
}

// newReplica builds replica idx over the world's agent fleet. Replica 0
// starts as leader.
func newReplica(w *world, idx int, spans *span.Recorder) (*replica, error) {
	r := &replica{
		id: fmt.Sprintf("r%d", idx), w: w, rf: w.sched.Replicas[idx],
		alive: true, spans: spans, fs: reconcile.NewMemFS(),
		conns: map[string]*agentConn{}, buf: &eventBuffer{},
	}
	for ai, id := range w.order {
		parts := append(append([]Window(nil), r.rf.AgentPartitions...), w.sched.AgentFaults[ai].Partitions...)
		r.conns[id] = &agentConn{
			replica: r.id, agent: id, buf: &eventBuffer{},
			inner: faults.WrapAgent(w.nodes[id].Sim, faults.AgentPlan{
				Partitions: faultWindows(parts),
				Clock:      w.clock,
			}),
		}
	}
	rep, err := r.build(0, idx != 0)
	if err != nil {
		return nil, err
	}
	r.rep = rep
	if idx == 0 {
		r.buf.add(0, r.id, EvAcquire, fmt.Sprintf("epoch %d", rep.Lease().Epoch))
	}
	return r, nil
}

// setPeer installs this replica's view of the other one.
func (r *replica) setPeer(id string, pc fleet.PeerClient) {
	r.peerID, r.peer = id, pc
	r.rep.AddPeer(id, pc)
}

// crash takes the replica dark. Everything in memory is lost; the store
// (lease epochs seen, registry, rollout) survives for the warm restart.
func (r *replica) crash(tickNo int) {
	r.alive = false
	// Power-loss semantics: only fsynced bytes survive. Both persistent
	// stores follow write→fsync→rename, so a crash here must lose
	// nothing — if one ever skips the fsync, the restored replica
	// regresses its epoch or registry and the invariants catch it.
	r.fs.DropUnsynced()
	r.buf.add(tickNo, r.id, EvCrash, "")
}

// restart is the warm restart: a fresh standby restored from the
// persistent store, staleness clocks re-anchored at the local now.
func (r *replica) restart(tickNo int, now time.Duration) {
	rep, err := r.build(r.local(now), true)
	if err != nil {
		r.buf.add(tickNo, r.id, EvRestart, "failed: "+err.Error())
		return
	}
	r.rep = rep
	r.rep.AddPeer(r.peerID, r.peer)
	r.alive = true
	r.buf.add(tickNo, r.id, EvRestart, "")
}

// agentReachable reports whether this replica can currently talk to
// the given agent (the heartbeat routing check — the same windows its
// push conns enforce).
func (r *replica) agentReachable(tick, agentIdx int) bool {
	for _, w := range r.rf.AgentPartitions {
		if w.Contains(tick) {
			return false
		}
	}
	for _, w := range r.w.sched.AgentFaults[agentIdx].Partitions {
		if w.Contains(tick) {
			return false
		}
	}
	return true
}

// tick runs the replica's tick and logs what it reports.
func (r *replica) tick(tickNo int, now time.Duration) {
	if !r.alive {
		return
	}
	for _, c := range r.conns {
		c.tickNo = tickNo
	}
	rep := r.rep.Tick(r.local(now))
	if rep.Promoted {
		r.failovers++
		r.buf.add(tickNo, r.id, EvAcquire, fmt.Sprintf("epoch %d", rep.Epoch))
	}
	for _, id := range rep.Suspected {
		r.buf.add(tickNo, r.id, EvSuspect, id)
	}
	for _, id := range rep.Evicted {
		r.buf.add(tickNo, r.id, EvEvict, id)
	}
	if rep.Deposed {
		r.buf.add(tickNo, r.id, EvDepose, "fenced push feedback")
	}
	if rep.Ended {
		r.buf.add(tickNo, r.id, EvRolloutEnd, rep.Decision+": "+rep.Reason)
	}
}

// wrapPeerPlan builds one replica's fault-wrapped view of the other:
// the bidirectional partition union plus the sender's own lease-loss and
// replication-lag windows.
func wrapPeerPlan(inner fleet.PeerClient, partitionUnion []Window, rf ReplicaFaults, clock func() time.Duration) fleet.PeerClient {
	return faults.WrapPeer(inner, faults.PeerPlan{
		Partitions:     faultWindows(partitionUnion),
		LeaseLoss:      faultWindows(rf.LeaseLoss),
		ReplicationLag: faultWindows(rf.ReplicationLag),
		Clock:          clock,
	})
}

// simPeer is one replica's in-process view of the other: the PeerClient
// the HTTP layer provides in lachesis-fleet, over whichever incarnation
// of the replica is current.
type simPeer struct {
	w  *world
	to *replica
}

var _ fleet.PeerClient = (*simPeer)(nil)

func (p *simPeer) Lease() (fleet.LeaseInfo, error) {
	if !p.to.alive {
		return fleet.LeaseInfo{}, transientf("peer %s down", p.to.id)
	}
	return p.to.rep.Lease().LeaseInfo, nil
}

func (p *simPeer) Replicate(cp fleet.Checkpoint) error {
	if !p.to.alive {
		return transientf("peer %s down", p.to.id)
	}
	return p.to.rep.ApplyCheckpoint(p.to.local(p.w.now), cp)
}
