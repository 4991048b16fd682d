package dst

import (
	"fmt"

	"lachesis/internal/core"
	"lachesis/internal/guard"
)

// Violation is one invariant failure, anchored to the tick it was
// detected at.
type Violation struct {
	Tick      int    `json:"tick"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Invariant names. The shrinker preserves the first violation's name
// while minimizing, so a reproducer always fails the same property.
const (
	InvOneLeaderPerEpoch = "one-leader-per-epoch"
	InvEpochMonotonic    = "epoch-monotonic"
	InvNoDoublePush      = "no-double-push"
	InvConvergence       = "convergence"
	InvContainment       = "last-good-containment"
	InvAuditReplay       = "audit-replay"
)

// InvariantInfo describes one checked property for docs and tooling.
type InvariantInfo struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	When  string `json:"when"`
	Desc  string `json:"desc"`
}

// Invariants lists every property the harness checks (the table
// ARCHITECTURE.md renders).
func Invariants() []InvariantInfo {
	return []InvariantInfo{
		{InvOneLeaderPerEpoch, "fleet/lease", "per tick",
			"no two replicas ever hold the leader lease with the same epoch"},
		{InvEpochMonotonic, "fleet/lease + agent gates", "per tick",
			"replica fence epochs and agent gate epochs never decrease, including across crash/restart"},
		{InvNoDoublePush, "fleet/rollout + guard/canary", "per tick",
			"no agent stages the rollout candidate twice (the fenced 403 / idempotent 409 pair holds)"},
		{InvConvergence, "full stack", "at end",
			"after quiescence a good rollout is promoted and every pushed agent holds it as last-good with no priority inversions"},
		{InvContainment, "guard/canary + fleet/rollout", "at end",
			"an adversarial rollout is rolled back and no agent retains it as last-good"},
		{InvAuditReplay, "core/audit", "at end",
			"replaying each agent's audit trail reproduces its kernel nice state exactly"},
	}
}

// invariantState carries the cross-tick memory of the per-tick checkers.
type invariantState struct {
	epochLeader  map[int64]string
	replicaEpoch map[string]int64
	gateEpoch    map[string]int64
}

func newInvariantState() *invariantState {
	return &invariantState{
		epochLeader:  map[int64]string{},
		replicaEpoch: map[string]int64{},
		gateEpoch:    map[string]int64{},
	}
}

// checkTick runs the per-tick invariants and returns the first
// violation, or nil.
func (st *invariantState) checkTick(w *world) *Violation {
	// At most one leader per epoch: each epoch is owned by the first
	// replica seen leading with it, forever.
	for _, r := range w.replicas {
		if !r.alive || !r.rep.Leading() {
			continue
		}
		e := r.rep.Lease().Epoch
		if owner, ok := st.epochLeader[e]; ok && owner != r.id {
			return &Violation{Tick: w.tick, Invariant: InvOneLeaderPerEpoch,
				Detail: fmt.Sprintf("epoch %d led by %s and %s", e, owner, r.id)}
		}
		st.epochLeader[e] = r.id
	}
	// Epoch monotonicity: each replica's epoch high-water mark only
	// ratchets — the lease store must carry it across a crash.
	// (FenceEpoch would be wrong here: it reads 0 for a standby, so a
	// legitimate deposition would look like a decrease.)
	for _, r := range w.replicas {
		if !r.alive {
			continue
		}
		e := r.rep.Lease().HighWater
		if last, ok := st.replicaEpoch[r.id]; ok && e < last {
			return &Violation{Tick: w.tick, Invariant: InvEpochMonotonic,
				Detail: fmt.Sprintf("replica %s fence epoch went %d -> %d", r.id, last, e)}
		}
		st.replicaEpoch[r.id] = e
	}
	for _, id := range w.order {
		e := w.nodes[id].Gate().Epoch()
		if last, ok := st.gateEpoch[id]; ok && e < last {
			return &Violation{Tick: w.tick, Invariant: InvEpochMonotonic,
				Detail: fmt.Sprintf("agent %s gate epoch went %d -> %d", id, last, e)}
		}
		st.gateEpoch[id] = e
	}
	// No double push: the candidate payload lands on each agent at most
	// once. (Stable/rollback payloads may legitimately be re-proposed.)
	for _, id := range w.order {
		if c, _ := w.nodes[id].Staged(w.payload); c > 1 {
			return &Violation{Tick: w.tick, Invariant: InvNoDoublePush,
				Detail: fmt.Sprintf("agent %s staged %s %d times", id, w.sched.Proposal.Version, c)}
		}
	}
	return nil
}

// rolloutContinuityGuaranteed reports whether the schedule rules out
// losing an in-flight rollout across a failover: a leader crash while
// its replication link is (or was just) lagged can legitimately strand
// the rollout in a checkpoint nobody holds — a documented contract
// boundary, not a bug, so the end-state decision checks are skipped for
// those schedules. All other invariants still apply.
func rolloutContinuityGuaranteed(s Schedule) bool {
	for _, r := range s.Replicas {
		for _, c := range r.Crashes {
			for _, rr := range s.Replicas {
				for _, lag := range rr.ReplicationLag {
					if c.At >= lag.From && c.At <= lag.To+1 {
						return false
					}
				}
			}
		}
	}
	return true
}

// checkEnd runs the end-state invariants after the settle tail.
func (st *invariantState) checkEnd(w *world) *Violation {
	// Containment first: it must hold regardless of how the rollout
	// concluded.
	if w.sched.Proposal.Adversarial {
		for _, id := range w.order {
			if string(w.nodes[id].LastGood()) == string(advPayload) {
				return &Violation{Tick: w.tick, Invariant: InvContainment,
					Detail: fmt.Sprintf("agent %s retains the adversarial payload as last-good", id)}
			}
		}
	}

	if v := st.checkConvergence(w); v != nil {
		return v
	}

	// Audit replay: folding every OK nice write in an agent's audit
	// trail must reproduce its kernel state byte for byte.
	for _, id := range w.order {
		n := w.nodes[id]
		replayed := core.ReplayNice(n.AuditEvents())
		actual := n.Nices()
		if len(replayed) != len(actual) {
			return &Violation{Tick: w.tick, Invariant: InvAuditReplay,
				Detail: fmt.Sprintf("agent %s: %d audited threads vs %d in kernel state", id, len(replayed), len(actual))}
		}
		for tid, nice := range actual {
			if got, ok := replayed[tid]; !ok || got != nice {
				return &Violation{Tick: w.tick, Invariant: InvAuditReplay,
					Detail: fmt.Sprintf("agent %s: thread %d kernel nice %d, audit replay %d", id, tid, nice, got)}
			}
		}
	}
	return nil
}

// checkConvergence asserts the post-quiescence end state.
func (st *invariantState) checkConvergence(w *world) *Violation {
	leader := w.leader()
	if leader == nil {
		return &Violation{Tick: w.tick, Invariant: InvConvergence,
			Detail: "no unique leader after quiescence"}
	}
	fst := leader.rep.Coordinator().Status()
	if fst.Active {
		return &Violation{Tick: w.tick, Invariant: InvConvergence,
			Detail: "rollout still active at the tick budget"}
	}
	if rolloutContinuityGuaranteed(w.sched) && w.proposed {
		want := guard.DecisionPromoted
		if w.sched.Proposal.Adversarial {
			want = guard.DecisionRolledBack
		}
		if fst.LastDecision != want {
			return &Violation{Tick: w.tick, Invariant: InvConvergence,
				Detail: fmt.Sprintf("rollout ended %q (%s), want %q", fst.LastDecision, fst.LastReason, want)}
		}
		if !w.sched.Proposal.Adversarial {
			// Every agent the final rollout state marks pushed (and not
			// degraded) must have converged on the candidate.
			state := leader.rep.Coordinator().State()
			for _, id := range sortedIDs(state.Agents) {
				a := state.Agents[id]
				if a == nil || !a.Pushed || a.Degraded {
					continue
				}
				n, ok := w.nodes[id]
				if !ok {
					continue
				}
				if string(n.LastGood()) != string(w.payload) {
					return &Violation{Tick: w.tick, Invariant: InvConvergence,
						Detail: fmt.Sprintf("agent %s pushed but last-good is not the candidate", id)}
				}
			}
		}
	}
	// Desired-state: no priority inversion survives quiescence, whatever
	// the rollout's outcome was.
	for _, id := range w.order {
		if inv := w.nodes[id].Inverted(); inv > 0 {
			return &Violation{Tick: w.tick, Invariant: InvConvergence,
				Detail: fmt.Sprintf("agent %s holds %d inverted priority pairs after quiescence", id, inv)}
		}
	}
	return nil
}
