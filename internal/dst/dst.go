// Package dst is a FoundationDB-style deterministic simulation harness
// for the Lachesis control plane. It composes the pieces the hand-written
// experiments in internal/harness exercise one scenario at a time — the
// shipped code, not copies of it: agent.Sim agents (real
// core.Middleware, local canary, and lachesisd's POST /policy path
// through internal/agent with its epoch gate), two fleet.Replica
// coordinators (the state machine lachesis-fleet serves over HTTP), and
// the seeded internal/faults injectors — into randomized, fully
// seed-reproducible full-stack schedules:
//
//   - Generate derives a complete Schedule from one 64-bit seed:
//     per-component fault plans (coordinator crash/restart points,
//     replica<->replica partitions, lease-observation loss, replication
//     lag, agent partitions, OS-control outages), per-replica clock
//     drift, and a policy-rollout proposal (good or adversarial).
//   - NewWorld/Run steps every component in a deterministic virtual-time
//     interleaving and appends transition events to a Log whose JSONL
//     encoding is byte-identical across replays of the same seed.
//   - The invariant checkers (invariant.go) assert the properties the
//     scripted experiments check ad hoc: at most one leader per epoch,
//     epoch monotonicity, zero double pushes, post-quiescence
//     convergence, last-good containment, and audit-replay equivalence.
//   - Shrink bisects a failing schedule (drop fault windows and crashes,
//     remove agents, truncate time) down to a minimal reproducer.
//
// All execution-time faults are window-based (no probabilistic draws on
// the hot path), so a run is a pure function of its Schedule; the
// randomness lives entirely in the generator. That is what makes a
// failing seed replayable and shrinkable.
package dst

// SeedsEnv is the environment knob widening the default corpus budget
// (the lachesis-dst CLI, the dst harness experiment, and the package
// tests all honor it — CI sets it once per job).
const SeedsEnv = "LACHESIS_DST_SEEDS"

// Options configures a simulation run independently of the Schedule.
type Options struct {
	// DisableFencing injects the regression the harness must prove it
	// can catch: agents' proposal paths are built without their epoch
	// gate (lachesisd's unfenced configuration), so a deposed
	// coordinator's stale pushes are accepted instead of being rejected
	// with a fenced 403. On schedules that partition a live
	// leader this manufactures double pushes and last-good clobbers.
	DisableFencing bool
	// Spans attaches a span recorder to the coordinators and agent
	// canaries so a violation can dump its causal trace through the
	// flight recorder (see Runner.DumpDir).
	Spans bool
}

// Policy payloads the simulated rollouts push. The stable payload is the
// fleet-wide baseline, the good candidate is a sane re-tuning, and the
// adversarial candidate inverts the heavy/light priority ordering — the
// signature the agents' SLO model turns into unbounded backlog.
var (
	stablePayload = []byte(`{"priorities":{"heavy":10,"light":1},"origin":"dst","version":"v-stable"}`)
	goodPayload   = []byte(`{"priorities":{"heavy":12,"light":2},"origin":"dst","version":"v2"}`)
	advPayload    = []byte(`{"priorities":{"heavy":1,"light":10},"origin":"dst","version":"v2"}`)
)
