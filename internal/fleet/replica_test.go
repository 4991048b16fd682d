package fleet

import (
	"errors"
	"testing"
	"time"

	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
)

// replicaPeer is one replica's in-process view of another.
type replicaPeer struct {
	to  *Replica
	now *time.Duration
}

func (p replicaPeer) Lease() (LeaseInfo, error) { return p.to.Lease().LeaseInfo, nil }
func (p replicaPeer) Replicate(cp Checkpoint) error {
	return p.to.ApplyCheckpoint(*p.now, cp)
}

func replicaConfig(id string, ff *fakeFleet, store *Store, standby bool) ReplicaConfig {
	return ReplicaConfig{
		ID: id, LeaseTTL: 3 * time.Second,
		Registry: RegistryConfig{HeartbeatInterval: time.Second},
		Rollout: RolloutConfig{
			CanaryFraction: 0.34, Waves: 2, WindowTicks: 1, PushTicks: 1,
			Fanout: noSleep(FanoutConfig{Attempts: 1}),
		},
		Conns: ff.conns, Store: store, Standby: standby,
		LastGood: []byte(`{"v":1}`),
	}
}

// promoteV2 registers three agents on the leader, proposes v2 and ticks
// the leader until the rollout ends, returning the final report.
func promoteV2(t *testing.T, r *Replica, now *time.Duration) TickReport {
	t.Helper()
	for _, id := range []string{"n1", "n2", "n3"} {
		if _, err := r.Registry().Register(*now, id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Propose(*now, "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		*now += time.Second
		if rep := r.Tick(*now); rep.Ended {
			return rep
		}
	}
	t.Fatal("rollout never ended")
	return TickReport{}
}

func TestReplicaRestartKeepsLastGoodAndEpoch(t *testing.T) {
	fs := reconcile.NewMemFS()
	ff := newFakeFleet("n1", "n2", "n3")
	var now time.Duration
	r, err := NewReplica(now, replicaConfig("a", ff, NewStore(fs, nil), false))
	if err != nil {
		t.Fatal(err)
	}
	if e := r.Lease().Epoch; e != 1 {
		t.Fatalf("leader built over an empty store holds epoch %d, want 1", e)
	}
	if rep := promoteV2(t, r, &now); rep.Decision != guard.DecisionPromoted {
		t.Fatalf("rollout ended %+v, want promoted", rep)
	}

	// Power loss: only fsynced bytes survive.
	fs.DropUnsynced()
	r2, err := NewReplica(now, replicaConfig("a", ff, NewStore(fs, nil), true))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(r2.Coordinator().LastGood()); got != `{"v":2}` {
		t.Fatalf("restarted last-good = %s, want the promoted {\"v\":2}", got)
	}
	if hw := r2.Lease().HighWater; hw != 1 {
		t.Fatalf("restarted high-water epoch = %d, want 1", hw)
	}
	r3, err := NewReplica(now, replicaConfig("a", ff, NewStore(fs, nil), false))
	if err != nil {
		t.Fatal(err)
	}
	if e := r3.Lease().Epoch; e != 2 {
		t.Fatalf("re-acquired epoch = %d, want 2 (one acquisition past the persisted 1)", e)
	}
}

func TestReplicaStandbyPromotionCarriesLastGood(t *testing.T) {
	ff := newFakeFleet("n1", "n2", "n3")
	var now time.Duration
	a, err := NewReplica(now, replicaConfig("a", ff, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	bcfg := replicaConfig("b", ff, nil, true)
	bcfg.LastGood = []byte(`{"v":0}`)
	b, err := NewReplica(now, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", replicaPeer{to: b, now: &now})
	b.AddPeer("a", replicaPeer{to: a, now: &now})

	promoteV2(t, a, &now)
	if b.Follower().Applied() == 0 {
		t.Fatal("standby applied no checkpoint")
	}
	// The leader goes silent; the standby waits out the TTL and promotes.
	var rep TickReport
	for i := 0; i < 10 && !rep.Promoted; i++ {
		now += time.Second
		rep = b.Tick(now)
	}
	if !rep.Promoted || rep.Epoch != 2 || b.Failovers() != 1 {
		t.Fatalf("standby tick report %+v (failovers %d), want promotion at epoch 2", rep, b.Failovers())
	}
	if got := string(b.Coordinator().LastGood()); got != `{"v":2}` {
		t.Fatalf("promoted standby last-good = %s, want the replicated {\"v\":2}", got)
	}
	if err := b.Propose(now, "", []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	st := b.Coordinator().State()
	if st.Version != "fleet-1" || string(st.StablePayload) != `{"v":2}` {
		t.Fatalf("proposal after failover = %q rolling back to %s, want fleet-1 -> {\"v\":2}", st.Version, st.StablePayload)
	}
}

func TestReplicaApplyCheckpointOnLeaderIsFenced(t *testing.T) {
	ff := newFakeFleet("n1")
	a, err := NewReplica(0, replicaConfig("a", ff, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	err = a.ApplyCheckpoint(time.Second, Checkpoint{Seq: 1, Lease: LeaseInfo{Epoch: 1, Holder: "x", RenewedSeq: 1}})
	var fe *FencedError
	if !errors.As(err, &fe) || fe.Have != 1 || fe.Got != 1 {
		t.Fatalf("ApplyCheckpoint on a leader = %v, want *FencedError have 1 got 1", err)
	}
	if a.Follower().Applied() != 0 || !a.Leading() {
		t.Fatal("a fenced checkpoint must neither apply nor depose the leader")
	}
}
