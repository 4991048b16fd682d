package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lachesis/internal/fleet"
	"lachesis/internal/reconcile"
)

// haDaemon builds a coordinator with an HA identity and lease TTL.
func haDaemon(t *testing.T, id string, standby bool, ttl time.Duration, conns fleet.ConnFactory, state reconcile.FS) *fleetDaemon {
	return mustDaemon(t, fleetOptions{
		registry: fleet.RegistryConfig{HeartbeatInterval: time.Second},
		rollout: fleet.RolloutConfig{
			CanaryFraction: 0.34, Waves: 2, WindowTicks: 1, PushTicks: 1,
			Fanout: fleet.FanoutConfig{Attempts: 1, Sleep: func(time.Duration) {}},
		},
		conns:    conns,
		id:       id,
		leaseTTL: ttl,
		standby:  standby,
	}, state)
}

// link joins two coordinators over real HTTP in both directions.
func link(a, b *fleetDaemon, srvA, srvB *httptest.Server) {
	a.rep.AddPeer("b", fleet.NewHTTPPeer("b", srvB.URL, time.Second))
	b.rep.AddPeer("a", fleet.NewHTTPPeer("a", srvA.URL, time.Second))
}

func TestStandbyServesReadsAndRejectsWrites(t *testing.T) {
	b := haDaemon(t, "b", true, time.Minute, func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} }, nil)
	srv := httptest.NewServer(b.handler())
	defer srv.Close()

	// Writes 503 with a leader hint so beacons and operators fail over.
	for _, probe := range []struct{ path, body string }{
		{"/register", `{"id":"n1","addr":"n1:1"}`},
		{"/heartbeat", `{"id":"n1"}`},
		{"/fleet/policy", `{"priorities":{"q1":1}}`},
	} {
		resp, err := http.Post(srv.URL+probe.path, "application/json", strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s on standby = %d, want 503", probe.path, resp.StatusCode)
		}
		if resp.Header.Get(fleet.EpochHeader) == "" {
			t.Fatalf("POST %s: standby rejection missing %s header", probe.path, fleet.EpochHeader)
		}
	}

	// Reads still serve: the lease view and health report the follower role.
	resp, err := http.Get(srv.URL + "/lease")
	if err != nil {
		t.Fatal(err)
	}
	var lv fleet.LeaseView
	_ = json.NewDecoder(resp.Body).Decode(&lv)
	resp.Body.Close()
	if lv.Leading || lv.ID != "b" {
		t.Fatalf("GET /lease on standby = %+v, want follower view", lv)
	}
	resp, err = http.Get(srv.URL + "/fleet/health")
	if err != nil {
		t.Fatal(err)
	}
	var h fleetHealth
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Leading {
		t.Fatalf("health on standby = %+v, want leading=false", h)
	}
}

func TestStandbyPromotesOnLeaderSilenceAndFencesOldLeader(t *testing.T) {
	conns := func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} }
	a := haDaemon(t, "a", false, 150*time.Millisecond, conns, nil)
	b := haDaemon(t, "b", true, 150*time.Millisecond, conns, nil)
	srvA, srvB := httptest.NewServer(a.handler()), httptest.NewServer(b.handler())
	defer srvA.Close()
	defer srvB.Close()
	link(a, b, srvA, srvB)

	if _, err := a.rep.Registry().Register(a.now(), "n1", "n1:1"); err != nil {
		t.Fatal(err)
	}
	a.tick() // renew + replicate: the standby now has a checkpoint
	if b.rep.Follower().Applied() == 0 {
		t.Fatal("standby applied no checkpoint after a leader tick")
	}

	// The leader goes silent (crash): after the TTL the standby's own
	// clock declares the lease dead and it promotes with a bumped epoch.
	deadline := time.Now().Add(5 * time.Second)
	for !b.rep.Leading() && time.Now().Before(deadline) {
		b.tick()
		time.Sleep(5 * time.Millisecond)
	}
	if !b.rep.Leading() {
		t.Fatal("standby never promoted after leader silence")
	}
	if epoch := b.rep.Lease().Epoch; epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	// The promotion adopted the replicated registry.
	if got := len(b.rep.Registry().Agents()); got != 1 {
		t.Fatalf("promoted registry has %d agents, want 1 (adopted from checkpoint)", got)
	}

	// The old leader wakes up still thinking it leads. Its replication
	// stream is fenced by the new leader (403), and the new leader's
	// checkpoint deposes it through its own /replicate handler.
	a.tick()
	if !a.rep.Leading() {
		t.Fatal("old leader should still believe it leads before hearing from b")
	}
	b.tick() // b replicates epoch 2 to a -> a observes and steps down
	if a.rep.Leading() {
		t.Fatal("old leader must step down after observing the newer epoch")
	}
	if a.rep.Lease().Epoch != 2 {
		t.Fatalf("old leader's lease view epoch = %d, want 2", a.rep.Lease().Epoch)
	}

	// Exactly one leader; a healed write through the new leader works.
	resp, err := http.Post(srvB.URL+"/fleet/policy?version=v2", "application/json",
		strings.NewReader(`{"priorities":{"q1":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /fleet/policy to promoted leader = %d, want 202", resp.StatusCode)
	}
}

func TestShutdownReleasesLeaseAndTakesFinalCheckpoint(t *testing.T) {
	mfs := reconcile.NewMemFS()
	conns := func(fleet.AgentRecord) fleet.AgentClient { return &memAgent{} }
	// A huge TTL proves the standby promotes on the RELEASE, not by
	// waiting out the lease.
	a := haDaemon(t, "a", false, time.Hour, conns, mfs)
	b := haDaemon(t, "b", true, time.Hour, conns, nil)
	srvA, srvB := httptest.NewServer(a.handler()), httptest.NewServer(b.handler())
	defer srvA.Close()
	defer srvB.Close()
	link(a, b, srvA, srvB)

	if _, err := a.rep.Registry().Register(a.now(), "n1", "n1:1"); err != nil {
		t.Fatal(err)
	}
	a.tick()

	a.shutdown() // SIGTERM path: release the lease, publish, persist
	if a.rep.Leading() {
		t.Fatal("shutdown must drop leadership")
	}
	// The final state checkpoint is on disk.
	st := fleet.NewStore(mfs, nil)
	if recs, ok, _ := st.LoadRegistry(); !ok || len(recs) != 1 {
		t.Fatalf("final registry checkpoint = %+v ok=%v", recs, ok)
	}
	if info, ok, _ := st.LoadLease(); !ok || !info.Released {
		t.Fatalf("final lease checkpoint = %+v ok=%v, want released", info, ok)
	}

	// The published release lets the standby promote on its next tick —
	// no TTL wait.
	b.tick()
	if !b.rep.Leading() {
		t.Fatal("standby must promote immediately on a released lease")
	}
	released, _, _ := st.LoadLease()
	if epoch := b.rep.Lease().Epoch; epoch != released.Epoch+1 {
		t.Fatalf("promoted epoch = %d, want %d (released epoch + 1)", epoch, released.Epoch+1)
	}
}
