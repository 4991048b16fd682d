package fleet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
)

// testRollout assembles a 6-agent fleet: cohorts are deterministic
// (sorted IDs), so n1,n2 canary, then {n3,n4} and {n5,n6} waves.
func testRollout(t *testing.T) (*Coordinator, *Registry, *fakeFleet) {
	t.Helper()
	ids := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	reg := NewRegistry(RegistryConfig{})
	for _, id := range ids {
		if _, err := reg.Register(0, id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	ff := newFakeFleet(ids...)
	co := NewCoordinator(RolloutConfig{
		CanaryFraction: 0.34, Waves: 2, WindowTicks: 2, PushTicks: 2,
		Fanout: noSleep(FanoutConfig{Attempts: 1}),
	}, reg, ff.conns)
	co.SeedLastGood([]byte(`{"v":1}`))
	return co, reg, ff
}

// drive ticks the coordinator until the rollout finishes (or maxTicks).
func drive(co *Coordinator, maxTicks int) int {
	now := time.Duration(0)
	for i := 0; i < maxTicks; i++ {
		if !co.Status().Active {
			return i
		}
		now += time.Second
		co.Tick(now)
	}
	return maxTicks
}

func TestRolloutPromotesThroughWaves(t *testing.T) {
	co, _, ff := testRollout(t)
	if err := co.Propose(0, "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if err := co.Propose(0, "v3", nil); err == nil {
		t.Fatal("second Propose during a rollout must fail")
	}
	drive(co, 30)
	st := co.Status()
	if st.Active || st.LastDecision != guard.DecisionPromoted || st.Promotions != 1 {
		t.Fatalf("status = %+v, want promoted", st)
	}
	for id, ag := range ff.agents {
		if ag.proposalCount() != 1 || ag.lastProposal() != `{"v":2}` {
			t.Fatalf("agent %s proposals = %d (%q), want exactly one candidate push",
				id, ag.proposalCount(), ag.lastProposal())
		}
	}
	// The promoted candidate is the new fleet last-good: the next
	// proposal rolls back to it, not to the seeded boot policy.
	if got := string(co.LastGood()); got != `{"v":2}` {
		t.Fatalf("last-good after promotion = %s, want {\"v\":2}", got)
	}
	if err := co.Propose(0, "v3", []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if got := string(co.State().StablePayload); got != `{"v":2}` {
		t.Fatalf("v3 rollback target = %s, want {\"v\":2}", got)
	}
}

func TestRolloutSLODeltaContainsBlastRadiusToCanaryCohort(t *testing.T) {
	co, _, ff := testRollout(t)
	if err := co.Propose(0, "bad", []byte(`{"v":9}`)); err != nil {
		t.Fatal(err)
	}
	now := time.Second
	co.Tick(now) // push tick: canary cohort staged, baselines recorded
	if st := co.Status(); st.Phase != PhaseObserving || st.Pushed != 2 {
		t.Fatalf("after push tick: %+v, want observing with 2 pushed", st)
	}
	// The candidate wrecks the canary nodes' latency; control stays flat.
	ff.get("n1").setSLO(4, 100)
	ff.get("n2").setSLO(4.5, 100)
	for i := 0; i < 10 && co.Status().Active; i++ {
		now += time.Second
		co.Tick(now)
	}
	st := co.Status()
	if st.LastDecision != guard.DecisionRolledBack || st.Rollbacks != 1 {
		t.Fatalf("status = %+v, want rolled-back", st)
	}
	if !strings.Contains(st.LastReason, "latency") {
		t.Fatalf("reason = %q, want SLO-delta reason", st.LastReason)
	}
	// Containment: canary agents got candidate then stable; the other
	// four agents never saw a single byte of the bad candidate.
	for _, id := range []string{"n1", "n2"} {
		ag := ff.get(id)
		if ag.proposalCount() != 2 || ag.lastProposal() != `{"v":1}` {
			t.Fatalf("canary %s proposals = %d (%q), want candidate then stable",
				id, ag.proposalCount(), ag.lastProposal())
		}
	}
	for _, id := range []string{"n3", "n4", "n5", "n6"} {
		if n := ff.get(id).proposalCount(); n != 0 {
			t.Fatalf("non-cohort %s received %d proposals, want 0", id, n)
		}
	}
}

func TestRolloutLocalGuardRollbackAbortsFleetWide(t *testing.T) {
	co, _, ff := testRollout(t)
	if err := co.Propose(0, "bad", []byte(`{"v":9}`)); err != nil {
		t.Fatal(err)
	}
	co.Tick(time.Second) // staged on n1,n2
	// n1's own guard aborts the candidate: its local rollback counter
	// moves and it is back on last-good (not active).
	ff.get("n1").bumpRollbacks()
	now := 2 * time.Second
	for i := 0; i < 10 && co.Status().Active; i++ {
		co.Tick(now)
		now += time.Second
	}
	st := co.Status()
	if st.LastDecision != guard.DecisionRolledBack {
		t.Fatalf("status = %+v, want rolled-back on local guard signal", st)
	}
	if !strings.Contains(st.LastReason, "local guard") {
		t.Fatalf("reason = %q, want local-guard attribution", st.LastReason)
	}
	// n1 already restored itself — the fleet must NOT push anything more
	// at it (that would clobber its self-healed state). n2 gets the
	// stable payload.
	if n := ff.get("n1").proposalCount(); n != 1 {
		t.Fatalf("n1 proposals = %d, want 1 (no redundant restore push)", n)
	}
	if ag := ff.get("n2"); ag.proposalCount() != 2 || ag.lastProposal() != `{"v":1}` {
		t.Fatalf("n2 proposals = %d (%q), want candidate then stable",
			ag.proposalCount(), ag.lastProposal())
	}
}

func TestRolloutDegradesUnreachableAgentAndProceeds(t *testing.T) {
	co, _, ff := testRollout(t)
	ff.get("n2").setDown(true) // crashed before the rollout
	if err := co.Propose(0, "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	drive(co, 40)
	st := co.Status()
	if st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("status = %+v, want promoted despite one dead canary node", st)
	}
	if st.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1", st.Degraded)
	}
	if n := ff.get("n2").proposalCount(); n != 0 {
		t.Fatalf("dead agent got %d proposals, want 0", n)
	}
}

func TestRolloutRollbackDrainSurvivesCrashedAgent(t *testing.T) {
	co, _, ff := testRollout(t)
	if err := co.Propose(0, "bad", []byte(`{"v":9}`)); err != nil {
		t.Fatal(err)
	}
	co.Tick(time.Second) // staged on n1,n2
	ff.get("n1").setSLO(9, 100)
	ff.get("n2").setDown(true) // partitions right after taking the candidate
	now := 2 * time.Second
	for i := 0; i < 40 && co.Status().Active; i++ {
		co.Tick(now)
		now += time.Second
	}
	st := co.Status()
	if st.Active || st.LastDecision != guard.DecisionRolledBack {
		t.Fatalf("status = %+v, want rollback to terminate despite partitioned agent", st)
	}
	if !strings.Contains(st.LastReason, "unreachable") {
		t.Fatalf("reason = %q, want unreachable agents called out", st.LastReason)
	}
	if ag := ff.get("n1"); ag.lastProposal() != `{"v":1}` {
		t.Fatalf("n1 last proposal = %q, want stable restored", ag.lastProposal())
	}
}

func TestRolloutResumesAfterCoordinatorCrash(t *testing.T) {
	co, _, ff := testRollout(t)
	fs := reconcile.NewMemFS()
	store := NewStore(fs, nil)
	co.SetStore(store)
	if err := co.Propose(0, "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	co.Tick(time.Second) // canary staged, state persisted — then "crash"

	// A fresh coordinator over the same store resumes mid-rollout.
	ids := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	reg2 := NewRegistry(RegistryConfig{})
	for _, id := range ids {
		if _, err := reg2.Register(0, id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	co2 := NewCoordinator(RolloutConfig{
		CanaryFraction: 0.34, Waves: 2, WindowTicks: 2, PushTicks: 2,
		Fanout: noSleep(FanoutConfig{Attempts: 1}),
	}, reg2, ff.conns)
	co2.SetStore(store)
	resumed, err := co2.Resume(2 * time.Second)
	if err != nil || !resumed {
		t.Fatalf("Resume = %v, %v; want resumed rollout", resumed, err)
	}
	if st := co2.Status(); st.Phase != PhaseObserving || st.Version != "v2" {
		t.Fatalf("resumed status = %+v, want observing v2", st)
	}
	drive(co2, 30)
	st := co2.Status()
	if st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("status after resume = %+v, want promoted", st)
	}
	// No agent was pushed twice: the persisted Pushed flags carried over.
	for id, ag := range ff.agents {
		if ag.proposalCount() != 1 {
			t.Fatalf("agent %s proposals = %d, want exactly 1 across the crash", id, ag.proposalCount())
		}
	}
}

func TestRolloutCohortsKeepControlAgent(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	if _, err := reg.Register(0, "solo", "s:1"); err != nil {
		t.Fatal(err)
	}
	ff := newFakeFleet("solo")
	co := NewCoordinator(RolloutConfig{
		CanaryFraction: 1, WindowTicks: 1, PushTicks: 1,
		Fanout: noSleep(FanoutConfig{Attempts: 1}),
	}, reg, ff.conns)
	if err := co.Propose(0, "v2", []byte("{}")); err != nil {
		t.Fatalf("single-agent fleets must still roll out: %v", err)
	}
	drive(co, 10)
	if st := co.Status(); st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("status = %+v, want promoted", st)
	}
}

func TestProposeRefusalsAreTyped(t *testing.T) {
	co := NewCoordinator(RolloutConfig{}, NewRegistry(RegistryConfig{}), newFakeFleet().conns)
	if err := co.Propose(0, "v2", []byte(`{}`)); !errors.Is(err, ErrNoActiveAgents) {
		t.Fatalf("Propose with no agents = %v, want ErrNoActiveAgents", err)
	}
	co, _, _ = testRollout(t)
	if err := co.Propose(0, "", []byte(`{}`)); !errors.Is(err, ErrEmptyVersion) {
		t.Fatalf("Propose without a version = %v, want ErrEmptyVersion", err)
	}
	if err := co.Propose(0, "v2", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := co.Propose(0, "v3", []byte(`{}`)); !errors.Is(err, ErrRolloutInFlight) {
		t.Fatalf("Propose during a rollout = %v, want ErrRolloutInFlight", err)
	}
}
