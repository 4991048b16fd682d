package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lachesis/internal/driver"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
)

// AgentPlan configures a fault-injecting wrapper around a
// fleet.AgentClient: the coordinator-side view of a partitioned, slow,
// or flaky lachesisd agent. As with the driver/OS injectors, virtual
// time (the caller's clock) selects the fault windows, so fleet chaos
// experiments replay deterministically.
type AgentPlan struct {
	// Seed drives all probabilistic faults (0 is a valid seed).
	Seed int64
	// FailRate is the probability in [0,1] that any one call fails with
	// a transient (retryable) transport error.
	FailRate float64
	// Partitions are virtual-time windows during which every call fails —
	// the network between coordinator and agent is down. The agent itself
	// keeps running; only the coordinator's view goes dark.
	Partitions Windows
	// SlowWindows are windows during which every call additionally
	// sleeps SlowLatency (wall-clock) before answering — a saturated
	// agent that responds, just slowly.
	SlowWindows Windows
	// SlowLatency is the delay injected inside SlowWindows.
	SlowLatency time.Duration
	// Clock supplies virtual time for window checks (nil = all windows
	// inactive unless they contain 0).
	Clock func() time.Duration
	// Sleep implements SlowLatency (nil = no-op).
	Sleep func(time.Duration)
}

// Agent wraps a fleet.AgentClient with the faults of an AgentPlan.
type Agent struct {
	inner fleet.AgentClient
	plan  AgentPlan

	// mu guards rng and the counters: agent calls arrive from the
	// fan-out's parallel goroutines.
	mu       sync.Mutex
	rng      *rand.Rand
	calls    int
	injected int
}

var (
	_ fleet.AgentClient = (*Agent)(nil)
	_ fleet.TracedAgent = (*Agent)(nil)
	_ fleet.FencedAgent = (*Agent)(nil)
)

// WrapAgent wraps an agent client with a fault plan.
func WrapAgent(inner fleet.AgentClient, plan AgentPlan) *Agent {
	return &Agent{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Propose implements fleet.AgentClient.
func (a *Agent) Propose(payload []byte) (guard.Status, error) {
	if err := a.gate("propose"); err != nil {
		return guard.Status{}, err
	}
	return a.inner.Propose(payload)
}

// ProposeTraced implements fleet.TracedAgent, delegating to the inner
// client's traced path when it has one (plain Propose otherwise, which
// drops only the trace, never the payload).
func (a *Agent) ProposeTraced(payload []byte, traceparent string) (guard.Status, error) {
	if err := a.gate("propose"); err != nil {
		return guard.Status{}, err
	}
	if t, ok := a.inner.(fleet.TracedAgent); ok {
		return t.ProposeTraced(payload, traceparent)
	}
	return a.inner.Propose(payload)
}

// ProposeFenced implements fleet.FencedAgent, delegating to the inner
// client's fenced path when it has one. An inner client without fencing
// falls back to the traced path — the fault wrapper must never let an
// epoch bypass a gate the real client would have enforced, and the
// in-process harness nodes as well as HTTPAgent all implement
// fleet.FencedAgent.
func (a *Agent) ProposeFenced(payload []byte, traceparent string, epoch int64) (guard.Status, error) {
	if err := a.gate("propose"); err != nil {
		return guard.Status{}, err
	}
	if f, ok := a.inner.(fleet.FencedAgent); ok {
		return f.ProposeFenced(payload, traceparent, epoch)
	}
	if t, ok := a.inner.(fleet.TracedAgent); ok {
		return t.ProposeTraced(payload, traceparent)
	}
	return a.inner.Propose(payload)
}

// Status implements fleet.AgentClient.
func (a *Agent) Status() (guard.Status, error) {
	if err := a.gate("status"); err != nil {
		return guard.Status{}, err
	}
	return a.inner.Status()
}

// SLO implements fleet.AgentClient.
func (a *Agent) SLO() (guard.SLOSample, error) {
	if err := a.gate("slo"); err != nil {
		return guard.SLOSample{}, err
	}
	return a.inner.SLO()
}

// Injected returns how many calls this wrapper failed.
func (a *Agent) Injected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.injected
}

// Calls returns how many calls the wrapper saw.
func (a *Agent) Calls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

// gate applies the plan to one call: partition and probabilistic
// failures return a transient error (the fan-out's retry/breaker path);
// slow windows delay, then let the call through.
func (a *Agent) gate(op string) error {
	a.mu.Lock()
	a.calls++
	var now time.Duration
	if a.plan.Clock != nil {
		now = a.plan.Clock()
	}
	partitioned := a.plan.Partitions.Contains(now)
	flaky := a.plan.FailRate > 0 && a.rng.Float64() < a.plan.FailRate
	slow := a.plan.SlowWindows.Contains(now)
	if partitioned || flaky {
		a.injected++
		a.mu.Unlock()
		kind := "flaky"
		if partitioned {
			kind = "partitioned"
		}
		return driver.MarkTransient(fmt.Errorf("%w: agent %s (%s)", ErrInjected, kind, op))
	}
	a.mu.Unlock()
	if slow && a.plan.SlowLatency > 0 && a.plan.Sleep != nil {
		a.plan.Sleep(a.plan.SlowLatency)
	}
	return nil
}
