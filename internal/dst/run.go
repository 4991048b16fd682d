package dst

import (
	"time"

	"lachesis/internal/span"
)

// Result is one simulation run's outcome.
type Result struct {
	// Seed the schedule came from (provenance only for hand-edited
	// schedules).
	Seed int64 `json:"seed"`
	// Ticks actually driven.
	Ticks int `json:"ticks"`
	// Events is the log length — the shrinker's size metric.
	Events int `json:"events"`
	// Violation is the first invariant failure, nil on a clean run.
	Violation *Violation `json:"violation,omitempty"`
	// Failovers is the total standby promotions across both replicas.
	Failovers int `json:"failovers"`
	// GateRejects is the agents' total fenced-push rejections.
	GateRejects int64 `json:"gate_rejects"`
	// Decision is the final leader's last rollout decision ("promoted",
	// "rolled-back", or empty).
	Decision string `json:"decision,omitempty"`
	// Adversarial mirrors the schedule's proposal kind.
	Adversarial bool `json:"adversarial"`

	// Log is the full event record (replay verification, shrinking).
	Log *Log `json:"-"`
	// Spans is the run's span recorder when Options.Spans was set (the
	// flight-recorder dump source).
	Spans *span.Recorder `json:"-"`
}

// RunSeed generates the seed's schedule and runs it.
func RunSeed(seed int64, opts Options) (*Result, error) {
	return RunSchedule(Generate(seed), opts)
}

// RunSchedule drives one schedule to quiescence (or the tick budget),
// checking the per-tick invariants each step and the end-state
// invariants after the settle tail. The run stops at the first
// violation; the log ends with its EvViolation event.
func RunSchedule(s Schedule, opts Options) (*Result, error) {
	w, err := newWorld(s, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Seed: s.Seed, Adversarial: s.Proposal.Adversarial}
	inv := newInvariantState()

	violate := func(v *Violation) {
		res.Violation = v
		w.log.Append(Event{Tick: v.Tick, Actor: "invariant", Kind: EvViolation,
			Detail: v.Invariant + ": " + v.Detail})
	}

	for w.tick < s.MaxTicks && res.Violation == nil {
		w.step()
		if v := inv.checkTick(w); v != nil {
			violate(v)
			break
		}
		if w.tick >= s.Ticks && w.quiescent() {
			break
		}
	}
	for i := 0; i < s.Settle && res.Violation == nil; i++ {
		w.step()
		if v := inv.checkTick(w); v != nil {
			violate(v)
		}
	}
	if res.Violation == nil {
		if v := inv.checkEnd(w); v != nil {
			violate(v)
		}
	}

	res.Ticks = w.tick
	res.Log = w.log
	res.Events = w.log.Len()
	res.Spans = w.spans
	for _, r := range w.replicas {
		res.Failovers += r.failovers
	}
	for _, id := range w.order {
		res.GateRejects += w.nodes[id].Gate().Rejected()
	}
	if l := w.leader(); l != nil {
		res.Decision = l.rep.Coordinator().Status().LastDecision
	}
	return res, nil
}

// DumpViolation trips a flight recorder for a failing run, writing the
// span bundle of the offending window into dir. Returns the bundle path
// ("" when the run recorded no spans or violation).
func DumpViolation(res *Result, dir string) (string, error) {
	if res == nil || res.Violation == nil || res.Spans == nil {
		return "", nil
	}
	fr := span.NewFlightRecorder(res.Spans, dir, 1)
	return fr.Trip(span.Trigger{
		At:     time.Duration(res.Violation.Tick) * time.Second,
		Kind:   span.TriggerInvariant,
		Detail: res.Violation.Invariant + ": " + res.Violation.Detail,
	})
}
