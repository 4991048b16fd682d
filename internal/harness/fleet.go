package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lachesis/internal/agent"
	"lachesis/internal/faults"
	"lachesis/internal/fleet"
	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
)

// The fleet experiment validates the coordination layer end to end: a
// lachesis-fleet coordinator rolling a policy out across N simulated
// lachesisd agents, each a real core.Middleware with its own local canary
// controller, bindings, and last-good policy store. Two runs back the two
// robustness claims of BENCH_fleet.json:
//
//   - containment: an adversarial inverse-priority candidate is staged on
//     the canary cohort only. Each cohort node's OWN canary cannot see the
//     damage (its canary and control bindings share one node-wide SLO, so
//     the relative verdict cancels) — but the fleet coordinator compares
//     cohort nodes against control NODES, catches the SLO delta, and rolls
//     the cohort back. Non-cohort nodes never receive a single byte of the
//     bad policy. A partitioned cohort agent additionally exercises the
//     fan-out's retry/breaker path: it is degraded out of the wave, its
//     lease is evicted, and it keeps enforcing its last-good autonomously.
//
//   - restart: the coordinator is killed mid-rollout of a good candidate
//     and restarted from its persisted state. Agents keep stepping on
//     their own through the downtime; the resumed rollout converges to
//     promotion without pushing any agent twice and without clobbering
//     any agent's last-good policy.

const (
	// fleetAgents x fleetNodeBindings sizes the simulated fleet: 8 agents
	// x 40 bindings = 320 bindings under coordination.
	fleetAgents       = 8
	fleetNodeBindings = 40
	// fleetLocalWindow is each agent's own canary window (decision
	// cycles); deliberately short, so local rollouts resolve well inside
	// one fleet observation window.
	fleetLocalWindow = 2
	// fleetContainFactor is the acceptance bound: every non-cohort node's
	// peak p95 must stay within this factor of its baseline while the
	// cohort degrades and rolls back.
	fleetContainFactor = 2.0
	// fleetMaxTicks bounds each driven rollout.
	fleetMaxTicks = 60
)

// fleetGoodPayload / fleetAdvPayload are the policy payloads the
// coordinator pushes: the agents' POST /policy format. fleetGoodPayload
// is also the agents' boot policy and so the fleet's initial last-good.
// The adversarial
// candidate inverts the heavy/light priority ordering, the signature the
// SLO model turns into unbounded backlog.
var (
	fleetGoodPayload = []byte(`{"priorities":{"heavy":10,"light":1},"origin":"fleet","version":"v-good"}`)
	fleetAdvPayload  = []byte(`{"priorities":{"heavy":1,"light":10},"origin":"fleet","version":"v-adv"}`)
	fleetV2Payload   = []byte(`{"priorities":{"heavy":12,"light":2},"origin":"fleet","version":"v2"}`)
)

// simFleet drives a single coordinator replica over simulated agents
// (the shared agent.Sim) on a shared virtual clock, one second per tick.
type simFleet struct {
	nodes map[string]*agent.Sim
	order []string
	conns fleet.ConnFactory
	rep   *fleet.Replica
	now   time.Duration
	// hbDown marks agents whose heartbeats are lost (network partition:
	// both directions go dark).
	hbDown map[string]bool
	// overrides swaps an agent's client for a fault-injecting wrapper.
	overrides map[string]fleet.AgentClient
}

func fleetRegistryConfig() fleet.RegistryConfig {
	return fleet.RegistryConfig{HeartbeatInterval: time.Second, SuspectAfter: 2, EvictAfter: 5}
}

func fleetRolloutConfig() fleet.RolloutConfig {
	return fleet.RolloutConfig{
		CanaryFraction: 0.25, Waves: 2, WindowTicks: 6, PushTicks: 3,
		Fanout: fleet.FanoutConfig{
			Attempts: 2, BreakerThreshold: 2, BreakerCooldown: 30 * time.Second,
			Sleep: func(time.Duration) {},
		},
	}
}

// newSimNodes builds agents n1..nN with the given bindings and local
// canary window.
func newSimNodes(agents, bindings, window int) (map[string]*agent.Sim, []string, error) {
	nodes := make(map[string]*agent.Sim, agents)
	var order []string
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := agent.NewSim(agent.SimConfig{ID: id, Bindings: bindings, Window: window})
		if err != nil {
			return nil, nil, err
		}
		nodes[id] = n
		order = append(order, id)
	}
	return nodes, order, nil
}

func newSimFleet(agents, bindings int) (*simFleet, error) {
	f := &simFleet{hbDown: make(map[string]bool)}
	var err error
	if f.nodes, f.order, err = newSimNodes(agents, bindings, fleetLocalWindow); err != nil {
		return nil, err
	}
	// The factory resolves through the overrides map on every call, so a
	// fault wrapper installed mid-run (a partition) takes effect on the
	// coordinator's next push even though the coordinator captured the
	// factory at construction.
	f.overrides = make(map[string]fleet.AgentClient)
	f.conns = func(a fleet.AgentRecord) fleet.AgentClient {
		if c, ok := f.overrides[a.ID]; ok {
			return c
		}
		return f.nodes[a.ID]
	}
	return f, nil
}

// restart builds the coordinator replica over store (nil: memory only).
// Over a store that holds state it is the crash-recovery path: registry
// and rollout resume where the last replica left them. The agents are
// untouched.
func (f *simFleet) restart(store *fleet.Store) error {
	rep, err := fleet.NewReplica(f.now, fleet.ReplicaConfig{
		ID: "fleet", Registry: fleetRegistryConfig(), Rollout: fleetRolloutConfig(),
		Conns: f.conns, Store: store, LastGood: fleetGoodPayload,
	})
	f.rep = rep
	return err
}

// start builds the coordinator and registers every agent.
func (f *simFleet) start(store *fleet.Store) error {
	if err := f.restart(store); err != nil {
		return err
	}
	for _, id := range f.order {
		if _, err := f.rep.Registry().Register(f.now, id, id); err != nil {
			return err
		}
	}
	return nil
}

// tick advances one fleet cycle: every agent steps on its own, live
// agents heartbeat, then the coordinator sweeps leases and drives the
// rollout. withCoordinator=false is coordinator downtime: the agents
// keep going exactly as before, because their decision cycles never
// depended on the coordinator being alive.
func (f *simFleet) tick(withCoordinator bool) {
	f.now += time.Second
	for _, id := range f.order {
		f.nodes[id].Tick(f.now)
	}
	if !withCoordinator {
		return
	}
	for _, id := range f.order {
		if !f.hbDown[id] {
			_ = f.rep.Registry().Heartbeat(f.now, id)
		}
	}
	f.rep.Tick(f.now)
}

// FleetContainment is the containment run's slice of BENCH_fleet.json.
type FleetContainment struct {
	Cohort        []string `json:"cohort"`
	RolledBack    bool     `json:"rolled_back"`
	Reason        string   `json:"rollback_reason"`
	RolloutTicks  int      `json:"rollout_ticks"`
	CohortPeak    float64  `json:"cohort_peak_p95_factor"`
	NonCohortPeak float64  `json:"noncohort_peak_p95_factor"`
	// NonCohortProposals counts adversarial payloads that reached any
	// node outside the canary cohort (must be 0: blast-radius proof).
	NonCohortProposals int `json:"noncohort_adversarial_proposals"`
	// CohortRestored: after the rollback drains, the cohort enforces the
	// stable policy again and holds it as last-good.
	CohortRestored bool `json:"cohort_restored"`
	// The partitioned cohort agent: the fan-out's breaker opened, the
	// lease was evicted, and the agent held its last-good throughout.
	PartitionedAgent        string `json:"partitioned_agent"`
	BreakerOpened           bool   `json:"breaker_opened"`
	PartitionedEvicted      bool   `json:"partitioned_evicted"`
	PartitionedKeptLastGood bool   `json:"partitioned_kept_last_good"`
	Contained               bool   `json:"contained"`
}

// FleetRestart is the coordinator-crash run's slice of BENCH_fleet.json.
type FleetRestart struct {
	KilledAfterTicks   int  `json:"killed_after_ticks"`
	DowntimeTicks      int  `json:"downtime_ticks"`
	DowntimeStepErrors int  `json:"downtime_step_errors"`
	ResumedActive      bool `json:"resumed_active"`
	ResumedAgents      int  `json:"resumed_agents"`
	Promoted           bool `json:"promoted"`
	// DoublePushes counts agents that received the candidate more than
	// once across the crash (must be 0: persisted push state).
	DoublePushes int `json:"double_pushes"`
	// ClobberedAgents counts agents whose last-good policy did not end up
	// at the promoted candidate (must be 0: no agent was reset).
	ClobberedAgents int  `json:"clobbered_agents"`
	Converged       bool `json:"converged"`
}

// FleetReport is the BENCH_fleet.json document.
type FleetReport struct {
	Experiment    string           `json:"experiment"`
	Agents        int              `json:"agents"`
	BindingsPer   int              `json:"bindings_per_agent"`
	BindingsTotal int              `json:"bindings_total"`
	Containment   FleetContainment `json:"containment"`
	Restart       FleetRestart     `json:"restart"`
	Accepted      bool             `json:"accepted"`
}

// runFleetContainment stages the adversarial candidate and measures the
// blast radius. One cohort agent is partitioned for the whole rollout.
func runFleetContainment(sc Scale) (FleetContainment, error) {
	out := FleetContainment{}
	f, err := newSimFleet(fleetAgents, fleetNodeBindings)
	if err != nil {
		return out, err
	}
	if err := f.start(nil); err != nil {
		return out, err
	}

	// Baseline: three clean cycles before the proposal.
	for i := 0; i < 3; i++ {
		f.tick(true)
	}

	// Partition one soon-to-be cohort agent (cohorts are the sorted
	// active ids, so n1/n2 canary): from here on, neither the fan-out
	// nor heartbeats reach n2. The faults wrapper marks every failure
	// transient, which is what drives the fan-out's retry + breaker path.
	const partitioned = "n2"
	partitionFrom := f.now
	inner := f.nodes[partitioned]
	f.overrides[partitioned] = faults.WrapAgent(inner, faults.AgentPlan{
		Partitions: faults.Windows{{From: partitionFrom, To: time.Hour}},
		Clock:      func() time.Duration { return f.now },
	})
	f.hbDown[partitioned] = true
	out.PartitionedAgent = partitioned

	co := f.rep.Coordinator()
	if err := f.rep.Propose(f.now, "v-adv", fleetAdvPayload); err != nil {
		return out, err
	}
	out.Cohort = co.Cohort(0)

	ticks := 0
	for ; ticks < fleetMaxTicks && co.Status().Active; ticks++ {
		f.tick(true)
		if co.Fanout().BreakerOpen(f.now, partitioned) {
			out.BreakerOpened = true
		}
	}
	st := co.Status()
	out.RolloutTicks = ticks
	out.RolledBack = !st.Active && st.LastDecision == guard.DecisionRolledBack
	out.Reason = st.LastReason

	// Drain: the restored stable policy un-inverts the cohort's bindings
	// and the backlog model recovers one unit per cycle.
	for i := 0; i < 10; i++ {
		f.tick(true)
	}

	cohort := map[string]bool{}
	for _, id := range out.Cohort {
		cohort[id] = true
	}
	out.CohortRestored = true
	for id, n := range f.nodes {
		peak := n.PeakFactor()
		if cohort[id] {
			if peak > out.CohortPeak {
				out.CohortPeak = peak
			}
			if id != partitioned && (n.Inverted() != 0 || string(n.LastGood()) != string(fleetGoodPayload)) {
				out.CohortRestored = false
			}
			continue
		}
		if peak > out.NonCohortPeak {
			out.NonCohortPeak = peak
		}
		adv, _ := n.Staged(fleetAdvPayload)
		out.NonCohortProposals += adv
	}
	if rec, ok := f.rep.Registry().Lookup(partitioned); ok {
		out.PartitionedEvicted = rec.State == fleet.LeaseEvicted
	}
	_, partTotal := inner.Staged(nil)
	out.PartitionedKeptLastGood = partTotal == 0 && inner.Inverted() == 0

	out.Contained = out.RolledBack &&
		out.NonCohortPeak <= fleetContainFactor &&
		out.NonCohortProposals == 0 &&
		out.CohortRestored &&
		out.PartitionedKeptLastGood
	return out, nil
}

// runFleetRestart kills the coordinator mid-rollout of a good candidate
// and proves the resumed rollout converges without clobbering agents.
func runFleetRestart(sc Scale) (FleetRestart, error) {
	out := FleetRestart{}
	f, err := newSimFleet(fleetAgents, fleetNodeBindings)
	if err != nil {
		return out, err
	}
	mfs := reconcile.NewMemFS()
	store := fleet.NewStore(mfs, nil)
	if err := f.start(store); err != nil {
		return out, err
	}
	for i := 0; i < 3; i++ {
		f.tick(true)
	}
	if err := f.rep.Propose(f.now, "v2", fleetV2Payload); err != nil {
		return out, err
	}
	// One cycle stages the canary cohort; then the coordinator "crashes"
	// (we simply stop ticking it — its state lives in the store).
	f.tick(true)
	out.KilledAfterTicks = 1

	out.DowntimeTicks = 5
	errsBefore := 0
	for _, n := range f.nodes {
		errsBefore += n.StepErrors()
	}
	for i := 0; i < out.DowntimeTicks; i++ {
		f.tick(false)
	}
	for _, n := range f.nodes {
		out.DowntimeStepErrors += n.StepErrors()
	}
	out.DowntimeStepErrors -= errsBefore

	// Warm restart from the persisted registry + rollout state.
	if err := f.restart(fleet.NewStore(mfs, nil)); err != nil {
		return out, err
	}
	co := f.rep.Coordinator()
	st := co.Status()
	out.ResumedActive = st.Active && st.Version == "v2"
	out.ResumedAgents = len(f.rep.Registry().Active())

	for i := 0; i < fleetMaxTicks && co.Status().Active; i++ {
		f.tick(true)
	}
	// A few settle cycles so the last wave's local canaries promote.
	for i := 0; i < fleetLocalWindow+1; i++ {
		f.tick(true)
	}
	st = co.Status()
	out.Promoted = !st.Active && st.LastDecision == guard.DecisionPromoted

	for _, n := range f.nodes {
		v2, _ := n.Staged(fleetV2Payload)
		if v2 > 1 {
			out.DoublePushes++
		}
		if string(n.LastGood()) != string(fleetV2Payload) {
			out.ClobberedAgents++
		}
	}
	out.Converged = out.Promoted && out.ResumedActive &&
		out.ResumedAgents == fleetAgents &&
		out.DoublePushes == 0 && out.ClobberedAgents == 0 &&
		out.DowntimeStepErrors == 0
	return out, nil
}

// fleetExp runs both fleet scenarios and emits BENCH_fleet.json when an
// artifact directory is configured.
func fleetExp(w io.Writer, sc Scale) error {
	report := FleetReport{
		Experiment: "fleet", Agents: fleetAgents,
		BindingsPer:   fleetNodeBindings,
		BindingsTotal: fleetAgents * fleetNodeBindings,
	}
	if sc.Progress != nil {
		sc.Progress("fleet: containment (adversarial candidate vs canary cohort)")
	}
	var err error
	if report.Containment, err = runFleetContainment(sc); err != nil {
		return err
	}
	if sc.Progress != nil {
		sc.Progress("fleet: coordinator kill + warm restart mid-rollout")
	}
	if report.Restart, err = runFleetRestart(sc); err != nil {
		return err
	}
	report.Accepted = report.Containment.Contained && report.Restart.Converged

	c, r := report.Containment, report.Restart
	fmt.Fprintln(w, "# Fleet: coordinated rollout across simulated lachesisd agents")
	fmt.Fprintf(w, "%d agents x %d bindings = %d bindings; canary cohort %v; local canary window %d cycles\n",
		report.Agents, report.BindingsPer, report.BindingsTotal, c.Cohort, fleetLocalWindow)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "containment: rolled back %v in %d ticks (%s)\n", c.RolledBack, c.RolloutTicks, c.Reason)
	fmt.Fprintf(w, "  cohort peak p95 %.2fx, non-cohort peak %.2fx (bound %.1fx), adversarial pushes outside cohort: %d\n",
		c.CohortPeak, c.NonCohortPeak, fleetContainFactor, c.NonCohortProposals)
	fmt.Fprintf(w, "  cohort restored to last-good: %v; partitioned %s: breaker=%v evicted=%v kept-last-good=%v\n",
		c.CohortRestored, c.PartitionedAgent, c.BreakerOpened, c.PartitionedEvicted, c.PartitionedKeptLastGood)
	fmt.Fprintf(w, "restart: killed after %d tick(s) of rollout, %d downtime ticks (%d agent step errors)\n",
		r.KilledAfterTicks, r.DowntimeTicks, r.DowntimeStepErrors)
	fmt.Fprintf(w, "  resumed active=%v with %d agents; promoted=%v; double pushes %d; clobbered agents %d\n",
		r.ResumedActive, r.ResumedAgents, r.Promoted, r.DoublePushes, r.ClobberedAgents)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "contained: %v; restart converged: %v; accepted: %v\n",
		c.Contained, r.Converged, report.Accepted)
	fmt.Fprintln(w, "the fleet canary catches what each node's own canary cannot see (node-wide SLO")
	fmt.Fprintln(w, "deltas vs control nodes), and a coordinator crash never clobbers agent state.")

	if sc.ArtifactDir != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(sc.ArtifactDir, "BENCH_fleet.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts: %s\n", path)
	}
	return nil
}
