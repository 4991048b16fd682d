package dst

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"

	"lachesis/internal/agent"
)

// Event is one transition in a simulation run. The Log's JSONL encoding
// is the unit of replay verification: the same Schedule must produce
// byte-identical logs, so every field is derived from simulation state
// only (no wall-clock, no map-iteration order, no goroutine identity).
type Event struct {
	// Tick is the virtual-time tick the event happened at.
	Tick int `json:"tick"`
	// Actor is the component the event belongs to ("world", a replica ID
	// like "r0", or an agent ID like "n3").
	Actor string `json:"actor"`
	// Kind is a stable event name (EvCrash, EvStaged, ...).
	Kind string `json:"kind"`
	// Detail is the human-readable payload.
	Detail string `json:"detail,omitempty"`
}

// Event kinds. The shrinker judges reproducers by log size and the
// invariants key off simulation state, so these names only need to be
// stable, not exhaustive.
const (
	EvCrash        = "crash"
	EvRestart      = "restart"
	EvPropose      = "propose"
	EvAcquire      = "acquire"
	EvDepose       = "depose"
	EvEvict        = "evict"
	EvSuspect      = "suspect"
	EvHeartbeatTo  = "hb-failover"
	EvPushOK       = "push-ok"
	EvPushFail     = "push-fail"
	EvPushFenced   = "push-fenced"
	EvPushConflict = "push-conflict"
	EvStaged       = agent.EventStaged
	EvLocalPromote = agent.EventPromoted
	EvLocalRollbck = agent.EventRolledBack
	EvGateReject   = agent.EventFenced
	EvRolloutEnd   = "rollout-end"
	EvViolation    = "violation"
)

// Log is the run's ordered event record.
type Log struct {
	events []Event
}

// Append adds an event.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Events returns the recorded events (not a copy; callers must not
// mutate).
func (l *Log) Events() []Event { return l.events }

// Len returns the event count — the shrinker's size metric.
func (l *Log) Len() int { return len(l.events) }

// EncodeJSONL renders the log one JSON object per line. Replaying the
// same schedule twice must produce byte-identical output.
func (l *Log) EncodeJSONL() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range l.events {
		_ = enc.Encode(e) // Event marshaling cannot fail
	}
	return buf.Bytes()
}

// eventBuffer collects events from concurrent callers (the fan-out's
// push goroutines) for one component. The world drains all buffers in
// a fixed component order each tick, which restores a deterministic
// global order: within one buffer, calls are serialized by the owning
// component's mutex, and the coordinator replicas tick sequentially.
type eventBuffer struct {
	mu     sync.Mutex
	events []Event
}

func (b *eventBuffer) add(tick int, actor, kind, detail string) {
	b.mu.Lock()
	b.events = append(b.events, Event{Tick: tick, Actor: actor, Kind: kind, Detail: detail})
	b.mu.Unlock()
}

// drain moves the buffered events into out and clears the buffer.
func (b *eventBuffer) drain(out *Log) {
	b.mu.Lock()
	for _, e := range b.events {
		out.Append(e)
	}
	b.events = b.events[:0]
	b.mu.Unlock()
}

// sortedIDs returns map keys in stable order (helper for deterministic
// iteration over per-agent maps).
func sortedIDs[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
