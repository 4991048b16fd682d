package dst

import (
	"fmt"
	"time"

	"lachesis/internal/driver"
	"lachesis/internal/span"
)

// transientf builds a transient (retryable) error, the class the fault
// injectors and dead peers surface.
func transientf(format string, args ...any) error {
	return driver.MarkTransient(fmt.Errorf(format, args...))
}

// world is one simulation universe: a fleet of agent nodes and two
// coordinator replicas on a shared virtual clock. Everything it does per
// tick happens in a fixed order, so a run is a pure function of its
// Schedule — the property the replay and shrink tooling rests on.
type world struct {
	sched Schedule
	opts  Options

	nodes    map[string]*node
	order    []string
	replicas []*replica

	now  time.Duration
	tick int

	log      *Log
	spans    *span.Recorder
	proposed bool
	payload  []byte
	// hbTarget tracks each agent's current heartbeat target so target
	// changes (beacon failover) are logged exactly once.
	hbTarget map[string]string
}

// clock is the shared virtual clock the fault injectors check windows
// against.
func (w *world) clock() time.Duration { return w.now }

// newWorld builds the universe a schedule describes.
func newWorld(s Schedule, opts Options) (*world, error) {
	w := &world{
		sched: s, opts: opts,
		nodes: map[string]*node{}, log: &Log{}, hbTarget: map[string]string{},
	}
	if opts.Spans {
		// Fixed seed + virtual clock keep span IDs deterministic too.
		w.spans = span.New(span.Config{
			Capacity: 2048, Process: "dst", Seed: uint64(s.Seed)*2 + 1,
			Clock: func() time.Time { return time.Unix(0, 0).Add(w.now) },
		})
	}
	w.payload = goodPayload
	if s.Proposal.Adversarial {
		w.payload = advPayload
	}
	for i := 0; i < s.Agents; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n, err := newNode(id, s, s.AgentFaults[i], w.clock, opts, w.spans)
		if err != nil {
			return nil, err
		}
		w.nodes[id] = n
		w.order = append(w.order, id)
	}
	if len(s.Replicas) != 2 {
		return nil, fmt.Errorf("schedule must describe exactly 2 replicas, got %d", len(s.Replicas))
	}
	for i := range s.Replicas {
		r, err := newReplica(w, i, w.spans)
		if err != nil {
			return nil, err
		}
		w.replicas = append(w.replicas, r)
	}
	w.wirePeers()
	for _, id := range w.order {
		if _, err := w.replicas[0].rep.Registry().Register(0, id, id); err != nil {
			return nil, err
		}
		w.hbTarget[id] = w.replicas[0].id
	}
	return w, nil
}

// wirePeers installs each replica's fault-wrapped view of the other.
// Peer partitions cut the link in both directions, so the union of both
// replicas' windows applies to both clients; lease loss and replication
// lag are per-sender.
func (w *world) wirePeers() {
	union := append(append([]Window(nil), w.sched.Replicas[0].PeerPartitions...),
		w.sched.Replicas[1].PeerPartitions...)
	for i, r := range w.replicas {
		other := w.replicas[1-i]
		r.setPeer(other.id, wrapPeerPlan(&simPeer{w: w, to: other}, union, w.sched.Replicas[i], w.clock))
	}
}

// step advances one virtual second in the fixed order: crash/restart
// points fire, agents run their decision cycles, heartbeats route to the
// reachable leader, the proposal is injected, replicas tick, and every
// component's event buffer drains into the log.
func (w *world) step() {
	w.tick++
	w.now += time.Second
	tick := w.tick

	for ri, r := range w.replicas {
		for _, c := range w.sched.Replicas[ri].Crashes {
			if tick == c.At && r.alive {
				r.crash(tick)
			}
			if tick == c.RestartAt && !r.alive {
				r.restart(tick, w.now)
			}
		}
	}

	for _, id := range w.order {
		w.nodes[id].Tick(w.now)
	}

	// Heartbeats: each agent beacons the first reachable LEADING replica
	// (a standby answers 503 — the failover path) and ratchets its
	// fencing epoch from the response. An evicted agent's heartbeat gets
	// an unknown-agent error and re-registers, like the live beacon.
	for ai, id := range w.order {
		target := ""
		for _, r := range w.replicas {
			if !r.alive || !r.rep.Leading() || !r.agentReachable(tick, ai) {
				continue
			}
			localNow := r.local(w.now)
			reg := r.rep.Registry()
			if err := reg.Heartbeat(localNow, id); err != nil {
				_, _ = reg.Register(localNow, id, id)
			}
			w.nodes[id].Gate().Observe(r.rep.Lease().Epoch)
			target = r.id
			break
		}
		if target != w.hbTarget[id] {
			detail := target
			if detail == "" {
				detail = "(none)"
			}
			w.log.Append(Event{Tick: tick, Actor: id, Kind: EvHeartbeatTo, Detail: detail})
			w.hbTarget[id] = target
		}
	}

	// The proposal is handed to the current leader at its tick, retried
	// while no leader is reachable or the registry has no active agents.
	if !w.proposed && tick >= w.sched.Proposal.Tick {
		for _, r := range w.replicas {
			if !r.alive || !r.rep.Leading() {
				continue
			}
			if err := r.rep.Propose(r.local(w.now), w.sched.Proposal.Version, w.payload); err == nil {
				w.proposed = true
				kind := "good"
				if w.sched.Proposal.Adversarial {
					kind = "adversarial"
				}
				w.log.Append(Event{Tick: tick, Actor: "world", Kind: EvPropose,
					Detail: w.sched.Proposal.Version + " (" + kind + ") via " + r.id})
			}
			break
		}
	}

	for _, r := range w.replicas {
		r.tick(tick, w.now)
	}

	w.drain()
}

// drain empties every component buffer into the log in a fixed order.
func (w *world) drain() {
	for _, id := range w.order {
		w.nodes[id].buf.drain(w.log)
	}
	for _, r := range w.replicas {
		r.buf.drain(w.log)
		for _, id := range w.order {
			r.conns[id].buf.drain(w.log)
		}
	}
}

// quiescent reports whether all scheduled faults resolved and every
// state machine is idle — the precondition for the end-state invariants.
func (w *world) quiescent() bool {
	if !w.proposed {
		return false
	}
	for ri, r := range w.replicas {
		for _, c := range w.sched.Replicas[ri].Crashes {
			if w.tick < c.RestartAt {
				return false
			}
		}
		if r.alive && r.rep.Coordinator().Status().Active {
			return false
		}
	}
	for _, id := range w.order {
		if st, _ := w.nodes[id].Status(); st.Active {
			return false
		}
	}
	return true
}

// leader returns the current unique leader if there is exactly one alive
// leading replica, else nil.
func (w *world) leader() *replica {
	var out *replica
	for _, r := range w.replicas {
		if r.alive && r.rep.Leading() {
			if out != nil {
				return nil
			}
			out = r
		}
	}
	return out
}
