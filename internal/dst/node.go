package dst

import (
	"time"

	"lachesis/internal/agent"
	"lachesis/internal/span"
)

// node is one simulated lachesisd agent under test: the shared
// agent.Sim — real middleware, local canary, epoch gate and POST /policy
// path — with the schedule's binding count, local canary window and
// OS-outage windows, logging its transitions into its own event buffer.
type node struct {
	*agent.Sim
	buf *eventBuffer
}

// newNode builds an agent. Options.DisableFencing is the injected
// regression: the agent's proposal path is built without its epoch
// gate, so a deposed coordinator's stale pushes land as if current.
func newNode(id string, s Schedule, af AgentFaults, clock func() time.Duration, opts Options, spans *span.Recorder) (*node, error) {
	n := &node{buf: &eventBuffer{}}
	sim, err := agent.NewSim(agent.SimConfig{
		ID: id, Bindings: s.Bindings, Window: s.LocalWindow,
		Unfenced:  opts.DisableFencing,
		OSOutages: faultWindows(af.OSOutages), Clock: clock,
		Spans: spans,
		// Virtual time advances one second per tick, so the agent's
		// clock names the tick.
		Events: func(now time.Duration, kind, detail string) {
			n.buf.add(int(now/time.Second), id, kind, detail)
		},
	})
	if err != nil {
		return nil, err
	}
	n.Sim = sim
	return n, nil
}
