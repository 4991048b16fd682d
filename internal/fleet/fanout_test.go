package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lachesis/internal/driver"
	"lachesis/internal/guard"
	"lachesis/internal/span"
)

// flakyAgent fails transiently a set number of times before succeeding.
type flakyAgent struct {
	mu        sync.Mutex
	failures  int
	proposals int
	status    guard.Status
}

func (f *flakyAgent) Propose([]byte) (guard.Status, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return guard.Status{}, driver.MarkTransient(errors.New("timeout"))
	}
	f.proposals++
	return f.status, nil
}
func (f *flakyAgent) Status() (guard.Status, error) { return f.status, nil }
func (f *flakyAgent) SLO() (guard.SLOSample, error) { return guard.SLOSample{}, nil }
func (f *flakyAgent) proposalsMade() int            { f.mu.Lock(); defer f.mu.Unlock(); return f.proposals }

func oneAgent(c AgentClient) ConnFactory {
	return func(AgentRecord) AgentClient { return c }
}

func TestFanoutRetriesTransientFailures(t *testing.T) {
	ag := &flakyAgent{failures: 2}
	f := NewFanout(noSleep(FanoutConfig{Attempts: 3}))
	outs := f.Push(0, []AgentRecord{{ID: "a"}}, oneAgent(ag), "v1", []byte("{}"))
	if len(outs) != 1 || !outs[0].OK || outs[0].Attempts != 3 {
		t.Fatalf("outcome = %+v, want OK after 3 attempts", outs)
	}
	if ag.proposalsMade() != 1 {
		t.Fatalf("proposals = %d, want 1", ag.proposalsMade())
	}
}

func TestFanoutConflictWithOwnVersionIsIdempotentSuccess(t *testing.T) {
	// The agent 409s (our earlier push landed, the response was lost) but
	// reports our candidate in flight: the push is already complete.
	ag := &fakeAgent{busy: true, st: guard.Status{Active: true, Candidate: "v1"}}
	f := NewFanout(noSleep(FanoutConfig{Attempts: 2}))
	outs := f.Push(0, []AgentRecord{{ID: "a"}}, oneAgent(ag), "v1", []byte("{}"))
	if !outs[0].OK || outs[0].Conflict {
		t.Fatalf("outcome = %+v, want idempotent OK", outs[0])
	}
}

func TestFanoutForeignConflictIsNotSuccess(t *testing.T) {
	ag := &fakeAgent{busy: true, st: guard.Status{Active: true, Candidate: "other"}}
	f := NewFanout(noSleep(FanoutConfig{Attempts: 2}))
	outs := f.Push(0, []AgentRecord{{ID: "a"}}, oneAgent(ag), "v1", []byte("{}"))
	if outs[0].OK || !outs[0].Conflict {
		t.Fatalf("outcome = %+v, want conflict", outs[0])
	}
}

func TestFanoutBreakerOpensSkipsAndProbes(t *testing.T) {
	ag := &fakeAgent{down: true}
	f := NewFanout(noSleep(FanoutConfig{
		Attempts: 1, BreakerThreshold: 2, BreakerCooldown: 10 * time.Second,
	}))
	rec := []AgentRecord{{ID: "a"}}

	// Two failed rounds open the breaker.
	now := time.Duration(0)
	for i := 0; i < 2; i++ {
		outs := f.Push(now, rec, oneAgent(ag), "v1", []byte("{}"))
		if outs[0].OK || outs[0].Skipped {
			t.Fatalf("round %d = %+v, want plain failure", i, outs[0])
		}
		now += time.Second
	}
	if !f.BreakerOpen(now, "a") {
		t.Fatal("breaker must be open after threshold failures")
	}

	// Within the cooldown: skipped without touching the agent.
	outs := f.Push(now, rec, oneAgent(ag), "v1", []byte("{}"))
	if !outs[0].Skipped || outs[0].Attempts != 0 {
		t.Fatalf("outcome = %+v, want skipped with zero attempts", outs[0])
	}

	// After the cooldown the probe goes through; the agent recovered, so
	// the breaker closes again.
	ag.setDown(false)
	now += 11 * time.Second
	outs = f.Push(now, rec, oneAgent(ag), "v1", []byte("{}"))
	if !outs[0].OK {
		t.Fatalf("probe = %+v, want OK", outs[0])
	}
	if f.BreakerOpen(now, "a") {
		t.Fatal("breaker must close after a successful probe")
	}
}

func TestFanoutPushesAgentsInParallelOrderPreserved(t *testing.T) {
	ff := newFakeFleet("a", "b", "c")
	f := NewFanout(noSleep(FanoutConfig{Attempts: 1, Parallel: 2}))
	recs := []AgentRecord{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	outs := f.Push(0, recs, ff.conns, "v1", []byte("{}"))
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Agent != recs[i].ID || !o.OK {
			t.Fatalf("outcome %d = %+v, want OK for %s (input order)", i, o, recs[i].ID)
		}
	}
}

// fencedFakeAgent runs pushes through an EpochGate before its embedded
// fakeAgent, like a real daemon's /policy handler.
type fencedFakeAgent struct {
	fakeAgent
	gate *EpochGate
}

func (f *fencedFakeAgent) ProposeFenced(payload []byte, _ string, epoch int64) (guard.Status, error) {
	if err := f.gate.Admit(epoch); err != nil {
		return guard.Status{}, err
	}
	return f.Propose(payload)
}

func TestFanoutFencedPushIsTerminalAndKeepsBreakerClosed(t *testing.T) {
	gate, err := NewEpochGate("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	gate.Observe(5)
	ag := &fencedFakeAgent{gate: gate}
	f := NewFanout(noSleep(FanoutConfig{Attempts: 3, BreakerThreshold: 1}))
	recs := []AgentRecord{{ID: "a"}}

	outs := f.PushEpoch(0, recs, oneAgent(ag), "v1", []byte("{}"), span.Context{}, 3)
	if !outs[0].Fenced || outs[0].OK {
		t.Fatalf("stale-epoch push = %+v, want fenced", outs[0])
	}
	// FencedError is not transient: retrying the same epoch can never
	// succeed, so no attempts are burned on a lost cause.
	if outs[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (fenced is terminal)", outs[0].Attempts)
	}
	// A fenced rejection is a healthy agent saying no: even at threshold
	// 1 the breaker stays closed, so the promoted leader's pushes are not
	// skipped later.
	if f.BreakerOpen(time.Millisecond, "a") {
		t.Fatal("breaker must stay closed after a fenced rejection")
	}

	// Epoch 0 degrades to an unfenced push (local operator path).
	if outs := f.PushEpoch(0, recs, oneAgent(ag), "v1", []byte("{}"), span.Context{}, 0); !outs[0].OK {
		t.Fatalf("unfenced push = %+v, want OK", outs[0])
	}
	// The current epoch is admitted.
	if outs := f.PushEpoch(0, recs, oneAgent(ag), "v1", []byte("{}"), span.Context{}, 5); !outs[0].OK {
		t.Fatalf("current-epoch push = %+v, want OK", outs[0])
	}
}

func TestFanoutBreakerHalfOpenConcurrentProbes(t *testing.T) {
	// Many concurrent pushes hit the same agent exactly when its breaker
	// cooldown lapses: the half-open window must stay consistent under
	// the race detector — no OK outcomes while the agent is down, and
	// the breaker re-opens afterwards.
	ag := &fakeAgent{down: true}
	f := NewFanout(noSleep(FanoutConfig{
		Attempts: 1, BreakerThreshold: 1, BreakerCooldown: 5 * time.Second, Parallel: 8,
	}))
	recs := make([]AgentRecord, 16)
	for i := range recs {
		recs[i] = AgentRecord{ID: "a"}
	}

	f.Push(0, recs[:1], oneAgent(ag), "v1", []byte("{}"))
	if !f.BreakerOpen(time.Second, "a") {
		t.Fatal("breaker must open after the threshold failure")
	}

	now := 6 * time.Second // past the cooldown: probes race through
	outs := f.Push(now, recs, oneAgent(ag), "v1", []byte("{}"))
	for i, o := range outs {
		if o.OK {
			t.Fatalf("probe %d = %+v, want failure or skip while agent is down", i, o)
		}
	}
	if !f.BreakerOpen(now+time.Millisecond, "a") {
		t.Fatal("breaker must re-open after failed probes")
	}

	// The agent recovers; the next probe wave closes the breaker.
	ag.setDown(false)
	now = 12 * time.Second
	outs = f.Push(now, recs, oneAgent(ag), "v1", []byte("{}"))
	ok := 0
	for _, o := range outs {
		if o.OK {
			ok++
		}
	}
	if ok == 0 {
		t.Fatalf("no probe reached the recovered agent: %+v", outs)
	}
	if f.BreakerOpen(now, "a") {
		t.Fatal("breaker must close after successful probes")
	}
}

func TestFanoutBadRequestsKeepBreakerClosed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad policy: policy has no priorities", http.StatusBadRequest)
	}))
	defer srv.Close()
	f := NewFanout(noSleep(FanoutConfig{Attempts: 1, BreakerThreshold: 3, BreakerCooldown: time.Minute}))
	rec := []AgentRecord{{ID: "a", Addr: srv.URL}}
	conns := HTTPConnFactory(time.Second)
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		o := f.Push(now, rec, conns, "v1", []byte(`{}`))[0]
		if o.OK || o.Conflict || o.Fenced || o.Skipped || o.Err == "" {
			t.Fatalf("round %d = %+v, want a plain error", i, o)
		}
		now += time.Second
	}
	if f.BreakerOpen(now, "a") {
		t.Fatal("400 answers from a reachable agent must not open its breaker")
	}

	// Transport errors still count: the agent stops answering.
	srv.Close()
	for i := 0; i < 3; i++ {
		if o := f.Push(now, rec, conns, "v1", []byte(`{}`))[0]; o.OK || o.Err == "" {
			t.Fatalf("round %d against a closed agent = %+v, want an error", i, o)
		}
		now += time.Second
	}
	if !f.BreakerOpen(now, "a") {
		t.Fatal("transport failures must open the breaker")
	}
}
