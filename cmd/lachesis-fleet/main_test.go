package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lachesis/internal/driver"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-tick", "0s"},
		{"-heartbeat", "-1s"},
		{"-canary-fraction", "1.5"},
		{"-canary-fraction", "0"},
		{"-suspect-after", "0"},
		{"-suspect-after", "5", "-evict-after", "5"},
		{"-window", "0"},
		{"-push-ticks", "-1"},
	}
	for _, args := range cases {
		var errBuf bytes.Buffer
		sigs := make(chan os.Signal, 1)
		if err := run(args, &bytes.Buffer{}, &errBuf, sigs); err == nil {
			t.Errorf("run(%v) succeeded, want fail-fast validation error", args)
		}
	}
}

func TestRunIterationsBoundedExit(t *testing.T) {
	var out, errBuf bytes.Buffer
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	dir := t.TempDir()
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-tick", "5ms", "-iterations", "3",
			"-pprof", "-span-log", dir + "/spans.jsonl", "-flight-dir", dir,
		}, &out, &errBuf, sigs)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v\nstderr: %s", err, errBuf.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit after -iterations ticks")
	}
	if !strings.Contains(errBuf.String(), "listening on") {
		t.Fatalf("stderr missing listen line: %s", errBuf.String())
	}
}

// policyAgent is a minimal fake lachesisd policy surface over HTTP.
type policyAgent struct {
	mu        sync.Mutex
	proposals []string
	st        guard.Status
	srv       *httptest.Server
}

func newPolicyAgent(t *testing.T) *policyAgent {
	t.Helper()
	a := &policyAgent{}
	mux := http.NewServeMux()
	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		a.mu.Lock()
		defer a.mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, a.st)
		case http.MethodPost:
			buf := new(bytes.Buffer)
			_, _ = buf.ReadFrom(r.Body)
			a.proposals = append(a.proposals, buf.String())
			writeJSON(w, http.StatusAccepted, a.st)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("lachesis_node_latency_p95 1\nlachesis_node_throughput 100\n"))
	})
	a.srv = httptest.NewServer(mux)
	t.Cleanup(a.srv.Close)
	return a
}

func (a *policyAgent) addr() string { return strings.TrimPrefix(a.srv.URL, "http://") }
func (a *policyAgent) proposalCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.proposals)
}
func (a *policyAgent) lastProposal() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.proposals) == 0 {
		return ""
	}
	return a.proposals[len(a.proposals)-1]
}

// mustDaemon builds a daemon over state (nil: in-memory).
func mustDaemon(t *testing.T, opts fleetOptions, state reconcile.FS) *fleetDaemon {
	t.Helper()
	d, err := newFleetDaemon(opts, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func quickDaemon(t *testing.T, conns fleet.ConnFactory, state reconcile.FS) *fleetDaemon {
	return mustDaemon(t, fleetOptions{
		registry: fleet.RegistryConfig{HeartbeatInterval: time.Second},
		rollout: fleet.RolloutConfig{
			CanaryFraction: 0.34, Waves: 2, WindowTicks: 1, PushTicks: 1,
			Fanout: fleet.FanoutConfig{Attempts: 1, Sleep: func(time.Duration) {}},
		},
		conns: conns,
	}, state)
}

func TestCoordinatorEndToEndOverHTTP(t *testing.T) {
	agents := map[string]*policyAgent{
		"n1": newPolicyAgent(t), "n2": newPolicyAgent(t), "n3": newPolicyAgent(t),
	}
	d := quickDaemon(t, fleet.HTTPConnFactory(time.Second), nil)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	// Agents register and heartbeat through the wire API.
	for id, a := range agents {
		body, _ := json.Marshal(fleet.RegisterRequest{ID: id, Addr: a.addr()})
		resp, err := http.Post(srv.URL+"/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr fleet.RegisterResponse
		_ = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rr.Generation != 1 || rr.IntervalMs != 1000 {
			t.Fatalf("register %s = %d %+v", id, resp.StatusCode, rr)
		}
		hb, _ := json.Marshal(fleet.HeartbeatRequest{ID: id})
		resp, err = http.Post(srv.URL+"/heartbeat", "application/json", bytes.NewReader(hb))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("heartbeat %s = %d", id, resp.StatusCode)
		}
	}
	hb, _ := json.Marshal(fleet.HeartbeatRequest{ID: "ghost"})
	resp, err := http.Post(srv.URL+"/heartbeat", "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat = %d, want 404 (re-register signal)", resp.StatusCode)
	}

	// Propose a fleet-wide policy and drive the coordinator to promotion.
	payload := `{"priorities":{"q1":2}}`
	resp, err = http.Post(srv.URL+"/fleet/policy?version=v2", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /fleet/policy = %d, want 202", resp.StatusCode)
	}
	// A second proposal during the rollout conflicts.
	resp, err = http.Post(srv.URL+"/fleet/policy", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent POST /fleet/policy = %d, want 409", resp.StatusCode)
	}

	for i := 0; i < 30 && d.rep.Coordinator().Status().Active; i++ {
		d.tick()
	}
	st := d.rep.Coordinator().Status()
	if st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("rollout = %+v, want promoted", st)
	}
	for id, a := range agents {
		if a.proposalCount() != 1 || a.lastProposal() != payload {
			t.Fatalf("agent %s proposals = %d (%q), want the fleet payload once",
				id, a.proposalCount(), a.lastProposal())
		}
	}

	// Health and metrics expose the fleet state.
	resp, err = http.Get(srv.URL + "/fleet/health")
	if err != nil {
		t.Fatal(err)
	}
	var h fleetHealth
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Agents[fleet.LeaseActive] != 3 {
		t.Fatalf("health = %d %+v", resp.StatusCode, h)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), fleet.MetricFleetAgents) ||
		!strings.Contains(buf.String(), fleet.MetricFleetPushesTotal) {
		t.Fatalf("metrics missing fleet instruments:\n%s", buf.String())
	}
}

// memAgent is an in-process fleet.AgentClient for restart tests.
type memAgent struct {
	mu        sync.Mutex
	proposals []string
	down      bool
}

func (m *memAgent) Propose(p []byte) (guard.Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return guard.Status{}, driver.MarkTransient(errors.New("down"))
	}
	m.proposals = append(m.proposals, string(p))
	return guard.Status{}, nil
}
func (m *memAgent) Status() (guard.Status, error) { return guard.Status{}, nil }
func (m *memAgent) SLO() (guard.SLOSample, error) {
	return guard.SLOSample{LatencyP95: 1, Throughput: 100, OK: true}, nil
}
func (m *memAgent) countOf(payload []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, p := range m.proposals {
		if p == string(payload) {
			n++
		}
	}
	return n
}

// driveRollout ticks d until its rollout ends and returns the decision.
func driveRollout(t *testing.T, d *fleetDaemon) string {
	t.Helper()
	co := d.rep.Coordinator()
	for i := 0; i < 30 && co.Status().Active; i++ {
		d.tick()
	}
	st := co.Status()
	if st.Active {
		t.Fatalf("rollout still active: %+v", st)
	}
	return st.LastDecision
}

func TestCoordinatorWarmRestartMidRollout(t *testing.T) {
	mfs := reconcile.NewMemFS()
	agents := map[string]*memAgent{"n1": {}, "n2": {}, "n3": {}}
	conns := func(a fleet.AgentRecord) fleet.AgentClient { return agents[a.ID] }
	v1, v2, v3 := []byte(`{"v":1}`), []byte(`{"v":2}`), []byte(`{"v":3}`)

	d1 := quickDaemon(t, conns, mfs)
	if e := d1.rep.Lease().Epoch; e != 1 {
		t.Fatalf("leading daemon over a fresh state dir holds epoch %d, want 1", e)
	}
	for id := range agents {
		if _, err := d1.rep.Registry().Register(d1.now(), id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.rep.Propose(d1.now(), "v1", v1); err != nil {
		t.Fatal(err)
	}
	if got := driveRollout(t, d1); got != guard.DecisionPromoted {
		t.Fatalf("v1 rollout ended %q, want promoted", got)
	}
	if err := d1.rep.Propose(d1.now(), "v2", v2); err != nil {
		t.Fatal(err)
	}
	d1.tick() // canary staged; registry + rollout persisted — then "crash"

	d2 := quickDaemon(t, conns, mfs)
	if got := len(d2.rep.Registry().Agents()); got != 3 {
		t.Fatalf("restarted registry has %d agents, want 3", got)
	}
	st := d2.rep.Coordinator().Status()
	if !st.Active || st.Version != "v2" {
		t.Fatalf("restarted rollout = %+v, want active v2", st)
	}
	// The resumed rollout converges without pushing any agent twice.
	if got := driveRollout(t, d2); got != guard.DecisionPromoted {
		t.Fatalf("rollout after restart ended %q, want promoted", got)
	}
	for id, a := range agents {
		if n := a.countOf(v2); n != 1 {
			t.Fatalf("agent %s got v2 %d times across restart, want once", id, n)
		}
	}
	// The resumed promotion moved the fleet last-good to v2: the next
	// proposal rolls back to v2, not to the pre-crash v1.
	if got := d2.rep.Coordinator().LastGood(); string(got) != string(v2) {
		t.Fatalf("fleet last-good after resumed promotion = %s, want %s", got, v2)
	}
	if err := d2.rep.Propose(d2.now(), "v3", v3); err != nil {
		t.Fatal(err)
	}
	if got := d2.rep.Coordinator().State().StablePayload; string(got) != string(v2) {
		t.Fatalf("v3 rollback target = %s, want %s", got, v2)
	}
}

// TestStateDirLastGoodRecordSeedsRollout: a state directory whose fleet
// last-good sits in the policy-store file (the layout before the rollout
// state carried it) keeps it, and a last-good recorded in the rollout
// state outranks that file.
func TestStateDirLastGoodRecordSeedsRollout(t *testing.T) {
	mfs := reconcile.NewMemFS()
	if err := reconcile.NewStore(mfs, nil).SaveLastGoodPolicy([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	agents := map[string]*memAgent{"n1": {}, "n2": {}}
	conns := func(a fleet.AgentRecord) fleet.AgentClient { return agents[a.ID] }
	d1 := quickDaemon(t, conns, mfs)
	if got := string(d1.rep.Coordinator().LastGood()); got != `{"v":1}` {
		t.Fatalf("last-good from the policy-store file = %s, want {\"v\":1}", got)
	}
	for id := range agents {
		if _, err := d1.rep.Registry().Register(d1.now(), id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.rep.Propose(d1.now(), "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if got := driveRollout(t, d1); got != guard.DecisionPromoted {
		t.Fatalf("rollout ended %q, want promoted", got)
	}
	d2 := quickDaemon(t, conns, mfs)
	if got := string(d2.rep.Coordinator().LastGood()); got != `{"v":2}` {
		t.Fatalf("restarted last-good = %s, want the promoted {\"v\":2}", got)
	}
}

// TestPolicyProposalStatusCodes: POST /fleet/policy answers 503 while no
// agent is active, 400 for a body that is not JSON, 202 when a rollout
// starts and 409 while it is in flight.
func TestPolicyProposalStatusCodes(t *testing.T) {
	d := quickDaemon(t, fleet.HTTPConnFactory(time.Second), nil)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/fleet/policy?version=v2", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	payload := `{"priorities":{"q1":2}}`
	if code := post(payload); code != http.StatusServiceUnavailable {
		t.Fatalf("proposal with no agents = %d, want 503", code)
	}
	a := newPolicyAgent(t)
	reg, _ := json.Marshal(fleet.RegisterRequest{ID: "n1", Addr: a.addr()})
	resp, err := http.Post(srv.URL+"/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, bad := range []string{"", "priorities: {q1: 2}"} {
		if code := post(bad); code != http.StatusBadRequest {
			t.Fatalf("proposal of %q = %d, want 400", bad, code)
		}
	}
	if code := post(payload); code != http.StatusAccepted {
		t.Fatalf("proposal = %d, want 202", code)
	}
	if code := post(payload); code != http.StatusConflict {
		t.Fatalf("proposal during a rollout = %d, want 409", code)
	}
}
