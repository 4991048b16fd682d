// Package fleet is the Lachesis control plane over many nodes: one
// coordinator distributing scheduling policies to the lachesisd agents of
// a deployment, aggregating their health and SLO, and running canary
// rollouts *across nodes* the way internal/guard runs them across
// bindings within one node.
//
// The package is built around three pieces:
//
//   - a Registry of agents with heartbeat leases (miss-N → suspect →
//     evicted, re-registration safe). Lease state is coordinator-side
//     bookkeeping only: an evicted agent is never contacted, reset, or
//     interfered with — it keeps enforcing its last-good policy
//     autonomously, which is what makes coordinator death and network
//     partitions survivable.
//   - a Fanout engine that pushes versioned policy payloads to each
//     agent's existing POST /policy API with per-agent timeouts,
//     exponential backoff with jitter (the shared retry helper in
//     internal/driver), idempotent handling of 409/timeout races, and a
//     per-agent circuit breaker so one flapping node cannot stall the
//     wave.
//   - a Coordinator that stages a candidate on a canary cohort of nodes,
//     watches per-node SLO baselines and agent-local guard verdicts over
//     an observation window, auto-rolls back the whole cohort on
//     SLO-delta or guard violation, and only then promotes the candidate
//     to the remaining cohorts in waves. Registry and rollout state
//     persist through a Store (same FS abstraction as internal/reconcile)
//     so a crashed coordinator warm-restarts into the rollout it was
//     running instead of clobbering the fleet back to square one.
package fleet

import (
	"errors"
	"fmt"

	"lachesis/internal/guard"
)

// AuditKindFleet tags fleet-level audit events (registrations, lease
// transitions, pushes, rollout decisions) in a core.AuditTrail.
const AuditKindFleet = "fleet"

// ErrUnknownAgent is returned by Registry.Heartbeat for an agent that is
// not registered (or was evicted): the agent must re-register. The HTTP
// layer maps it to 404 so beacons know to re-register.
var ErrUnknownAgent = errors.New("fleet: unknown agent")

// Coordinator.Propose refusals. The HTTP layer answers ErrRolloutInFlight
// with 409, ErrEmptyVersion with 400 and ErrNoActiveAgents with 503.
var (
	// ErrRolloutInFlight: a rollout is in progress; a proposal must not
	// silently displace it.
	ErrRolloutInFlight = errors.New("fleet: rollout in flight")
	// ErrEmptyVersion: the candidate carries no version.
	ErrEmptyVersion = errors.New("fleet: empty candidate version")
	// ErrNoActiveAgents: no agent holds an active lease to stage on.
	ErrNoActiveAgents = errors.New("fleet: no active agents")
)

// ConflictError reports that an agent refused a policy push because a
// rollout is already in flight on it (HTTP 409). It is not transient:
// retrying immediately cannot succeed, but the push may still be
// idempotently complete if the in-flight rollout IS the pushed version —
// the fan-out confirms via the agent's status.
type ConflictError struct {
	Agent string
	Body  string
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("fleet: agent %s: rollout in flight: %s", e.Agent, e.Body)
}

// IsConflict reports whether err is (or wraps) a ConflictError.
func IsConflict(err error) bool {
	var ce *ConflictError
	return errors.As(err, &ce)
}

// AgentClient is the coordinator's view of one agent's policy API — the
// three calls the fan-out and the fleet canary need. The HTTP
// implementation (HTTPAgent) talks to a real lachesisd introspection
// server; the fleet harness implements it in-process over simulated
// nodes, and internal/faults wraps it with partition/slow-agent
// injectors.
type AgentClient interface {
	// Propose stages a policy payload on the agent (POST /policy). A
	// rollout already in flight returns a *ConflictError; transport
	// failures and timeouts return errors marked core.ErrTransient so
	// the fan-out's retry policy takes them.
	Propose(payload []byte) (guard.Status, error)
	// Status reads the agent's rollout state (GET /policy).
	Status() (guard.Status, error)
	// SLO reads the agent's current node-level service level (aggregated
	// from its /metrics). OK=false when the agent exports no SLO, in
	// which case fleet verdicts rest on guard violations alone — the
	// same degradation the per-node canary makes without a sampler.
	SLO() (guard.SLOSample, error)
}

// TracedAgent is an optional extension of AgentClient: clients that can
// carry a trace context alongside a policy push implement it, and the
// fan-out uses it to propagate the rollout's trace ID to the agent (the
// HTTPAgent sends it as a Traceparent header; the harness's in-process
// nodes hand it straight to their canary). The payload bytes are never
// touched — propagation is strictly out-of-band, so payload-identity
// checks (idempotent re-push, last-good comparison) keep working.
type TracedAgent interface {
	// ProposeTraced is Propose with a W3C-style traceparent string
	// (span.Context.Traceparent()). An empty traceparent must behave
	// exactly like Propose.
	ProposeTraced(payload []byte, traceparent string) (guard.Status, error)
}

// ConnFactory returns the AgentClient for one registered agent. The
// coordinator resolves connections lazily through it so re-registered
// agents with new addresses are always reached at their current address.
type ConnFactory func(a AgentRecord) AgentClient
