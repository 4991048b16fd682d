package fleet

import (
	"sync"
	"testing"
	"time"

	"lachesis/internal/guard"
	"lachesis/internal/span"
)

// tracedFake is a fakeAgent that also implements TracedAgent, recording
// every traceparent the fan-out hands it.
type tracedFake struct {
	fakeAgent
	tmu          sync.Mutex
	traceparents []string
}

func (tf *tracedFake) ProposeTraced(payload []byte, traceparent string) (guard.Status, error) {
	tf.tmu.Lock()
	tf.traceparents = append(tf.traceparents, traceparent)
	tf.tmu.Unlock()
	return tf.Propose(payload)
}

// TestRolloutSpanChainAndTraceparent: a rollout emits a root "rollout"
// span, each agent push is a child "push" span, and TracedAgent clients
// receive a traceparent carrying the rollout's trace ID with the push
// span as parent — without the payload bytes changing.
func TestRolloutSpanChainAndTraceparent(t *testing.T) {
	rec := span.New(span.Config{Process: "lachesis-fleet", Seed: 7})
	ids := []string{"n1", "n2", "n3"}
	reg := NewRegistry(RegistryConfig{})
	for _, id := range ids {
		if _, err := reg.Register(0, id, id+":1"); err != nil {
			t.Fatal(err)
		}
	}
	agents := map[string]*tracedFake{}
	for _, id := range ids {
		agents[id] = &tracedFake{fakeAgent: fakeAgent{slo: guard.SLOSample{LatencyP95: 1, Throughput: 100, OK: true}}}
	}
	co := NewCoordinator(RolloutConfig{
		CanaryFraction: 0.34, Waves: 1, WindowTicks: 1, PushTicks: 2,
		Fanout: noSleep(FanoutConfig{Attempts: 1}),
	}, reg, func(a AgentRecord) AgentClient { return agents[a.ID] })
	co.SetSpans(rec)

	if err := co.Propose(0, "v2", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	drive(co, 30)
	if st := co.Status(); st.LastDecision != guard.DecisionPromoted {
		t.Fatalf("rollout did not promote: %+v", st)
	}

	var root span.Span
	pushes := map[string]span.Span{} // span ID -> span
	for _, sp := range rec.Snapshot() {
		switch sp.Name {
		case "rollout":
			root = sp
		case "push":
			pushes[sp.ID] = sp
		}
	}
	if root.ID == "" {
		t.Fatal("no rollout root span recorded")
	}
	if root.Attrs.Get("decision") != guard.DecisionPromoted {
		t.Errorf("rollout decision attr = %q", root.Attrs.Get("decision"))
	}
	if len(pushes) != len(ids) {
		t.Fatalf("push spans = %d, want %d", len(pushes), len(ids))
	}
	for id, sp := range pushes {
		if sp.Trace != root.Trace || sp.Parent != root.ID {
			t.Errorf("push %s not a child of the rollout span: %+v", id, sp)
		}
	}
	for id, ag := range agents {
		if ag.proposalCount() != 1 || ag.lastProposal() != `{"v":2}` {
			t.Fatalf("agent %s payload altered or re-pushed: %q", id, ag.lastProposal())
		}
		if len(ag.traceparents) != 1 {
			t.Fatalf("agent %s traceparents = %v, want exactly one", id, ag.traceparents)
		}
		ctx, ok := span.ParseTraceparent(ag.traceparents[0])
		if !ok {
			t.Fatalf("agent %s got malformed traceparent %q", id, ag.traceparents[0])
		}
		if ctx.Trace != root.Trace {
			t.Errorf("agent %s traceparent trace = %s, want rollout trace %s", id, ctx.Trace, root.Trace)
		}
		if _, isPush := pushes[ctx.Span]; !isPush {
			t.Errorf("agent %s traceparent parent span %s is not a push span", id, ctx.Span)
		}
	}
}

// TestRolloutWithoutRecorderSendsNoTraceparent: with no recorder
// attached, TracedAgent clients are reached via plain Propose — no
// empty-string traceparent leaks over the hop.
func TestRolloutWithoutRecorderSendsNoTraceparent(t *testing.T) {
	ag := &tracedFake{fakeAgent: fakeAgent{slo: guard.SLOSample{OK: true, Throughput: 100, LatencyP95: 1}}}
	f := NewFanout(noSleep(FanoutConfig{Attempts: 1}))
	outs := f.Push(0, []AgentRecord{{ID: "n1"}}, func(AgentRecord) AgentClient { return ag }, "v1", []byte(`{}`))
	if len(outs) != 1 || !outs[0].OK {
		t.Fatalf("push failed: %+v", outs)
	}
	if len(ag.traceparents) != 0 {
		t.Errorf("untraced push used ProposeTraced: %v", ag.traceparents)
	}
}

// TestFanoutBreakerHookFiresOnFreshOpen: the hook fires when the breaker
// freshly opens, once, and wiring it to a flight recorder captures the
// moment.
func TestFanoutBreakerHookFiresOnFreshOpen(t *testing.T) {
	f := NewFanout(noSleep(FanoutConfig{Attempts: 1, BreakerThreshold: 2, BreakerCooldown: 10 * time.Second}))
	var opened []string
	f.SetBreakerHook(func(now time.Duration, agent string) { opened = append(opened, agent) })
	down := &fakeAgent{down: true}
	conns := func(AgentRecord) AgentClient { return down }
	rec := []AgentRecord{{ID: "n1"}}

	f.Push(0, rec, conns, "v1", nil) // fail 1
	if len(opened) != 0 {
		t.Fatalf("hook fired before threshold: %v", opened)
	}
	f.Push(time.Second, rec, conns, "v1", nil) // fail 2: fresh open
	if len(opened) != 1 || opened[0] != "n1" {
		t.Fatalf("hook after threshold: %v, want [n1]", opened)
	}
	outs := f.Push(2*time.Second, rec, conns, "v1", nil) // open: skipped, no re-fire
	if !outs[0].Skipped || len(opened) != 1 {
		t.Fatalf("open breaker: outs=%+v opened=%v", outs, opened)
	}
}
