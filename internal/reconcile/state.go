// Package reconcile makes Lachesis converge like a controller instead of
// firing and forgetting. The paper's translators (§5.3) assume an applied
// nice/cpu.shares value stays applied; on a real host it does not —
// threads churn and re-exec, other agents (systemd, autogroup, a stray
// renice, a second tuner) overwrite priorities, cgroups get torn down,
// and a daemon crash loses every decision ever made. This package keeps
// a durable record of the middleware's *intent* (the DesiredState),
// observes the kernel's *actual* scheduling state through the
// core.Observer interface, classifies divergence (drift), and repairs it
// with budgeted re-applies. On restart, the persisted desired state is
// reloaded and reconciled before the first new decision — a warm restart
// that restores the exact scheduling posture the crashed daemon had.
package reconcile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"sync"

	"lachesis/internal/core"
	"lachesis/internal/telemetry"
)

// Entry kinds: which control knob a desired-state entry pins.
const (
	KindNice      = "nice"      // thread nice value
	KindShares    = "shares"    // cgroup cpu.shares
	KindPlacement = "placement" // thread-in-cgroup membership
)

// Entry is one desired scheduling fact: "thread 4242 (started at tick
// 152) should have nice -5", "cgroup lachesis/q1 should have 512
// shares", "thread 4242 should live in lachesis/q1".
type Entry struct {
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// TID is the OS thread id of nice/placement entries.
	TID int `json:"tid,omitempty"`
	// Start is the thread's identity token at record time (on Linux the
	// start-time field 22 of /proc/<tid>/task/<tid>/stat). 0 means unknown. A
	// reconciler observing a different identity under the same TID treats
	// the entry as vanished — the TID was recycled by an unrelated
	// thread, and renicing the new occupant would be scheduling sabotage.
	Start uint64 `json:"start,omitempty"`
	// Cgroup is the group name of shares/placement entries.
	Cgroup string `json:"cgroup,omitempty"`
	// Value is the desired nice (KindNice) or shares (KindShares).
	Value int `json:"value,omitempty"`
	// Version is the state version at which this entry was last set.
	Version int64 `json:"version"`
	// Entity optionally names the operator the entry belongs to, for
	// audit attribution.
	Entity string `json:"entity,omitempty"`
}

// Key returns the entry's identity in the state map. Thread entries key
// by TID alone — there is one desired nice and one desired placement per
// thread id at a time; identity mismatches are resolved at reconcile
// time via Start, and re-recording under a recycled TID overwrites with
// the new occupant's identity.
func (e Entry) Key() string {
	switch e.Kind {
	case KindNice:
		return fmt.Sprintf("nice/%d", e.TID)
	case KindShares:
		return "shares/" + e.Cgroup
	case KindPlacement:
		return fmt.Sprintf("place/%d", e.TID)
	default:
		return "?/" + e.Kind
	}
}

// same reports whether two entries pin the same fact (ignoring Version):
// used to dedup the middleware's periodic same-value re-applies so they
// cost no log append and no version bump.
func (e Entry) same(o Entry) bool {
	return e.Kind == o.Kind && e.TID == o.TID && e.Start == o.Start &&
		e.Cgroup == o.Cgroup && e.Value == o.Value && e.Entity == o.Entity
}

// DesiredState is the versioned map of every scheduling fact the
// middleware currently intends. With a Store, every mutation is logged
// and group-committed: a mutating call returns only once an fsync
// covering its log record has finished, so a crash loses at most the
// records of the one flush in flight — writes that already reached the
// kernel but whose callers had not yet returned. The warm-restart
// reconcile pass reverts those writes to the persisted state, and the
// first decision after the restart re-issues them. Persistence failures
// are retained best-effort via Err(): a full disk degrades durability,
// never scheduling.
//
// Locking: mu guards the map, the version and the pending batch of
// encoded records, and is held only for map updates and record
// encoding. commitMu serializes the Store: its holder takes every record
// pending at that moment, writes and fsyncs them with mu released, so
// mutators keep staging records while the disk works and one fsync
// covers every record queued behind the previous one. Lock order is
// commitMu, then mu.
type DesiredState struct {
	mu      sync.Mutex
	entries map[string]Entry
	version int64
	err     error
	// pending holds the encoded log records not yet handed to the store,
	// numbered durable+1 through seq; durable is the sequence number of
	// the last record a finished fsync covers.
	pending bytes.Buffer
	enc     *json.Encoder
	seq     uint64
	durable uint64

	commitMu sync.Mutex
	store    *Store
	batch    []byte // the commit holder's copy of pending

	ctrRecords *telemetry.Counter
	ctrSyncs   *telemetry.Counter
}

// NewDesiredState creates a desired state backed by store (nil for a
// purely in-memory state). With a store, the previous snapshot+log are
// loaded — the warm-restart path.
func NewDesiredState(store *Store) (*DesiredState, error) {
	d := &DesiredState{entries: make(map[string]Entry), store: store}
	d.enc = json.NewEncoder(&d.pending)
	if store != nil {
		entries, version, err := store.Load()
		if err != nil {
			return nil, err
		}
		d.entries = entries
		d.version = version
	}
	return d, nil
}

// SetTelemetry exports the log's record and fsync counts
// (MetricLogRecords, MetricLogSyncs), whose ratio is how many records
// each group commit covered. Call it before concurrent use begins.
func (d *DesiredState) SetTelemetry(reg *telemetry.Registry) {
	d.ctrRecords = reg.Counter(MetricLogRecords)
	d.ctrSyncs = reg.Counter(MetricLogSyncs)
}

// SetNice records the intent that tid (with identity start) runs at nice.
func (d *DesiredState) SetNice(tid int, start uint64, nice int, entity string) {
	d.commit(d.set(Entry{Kind: KindNice, TID: tid, Start: start, Value: nice, Entity: entity}))
}

// SetShares records the intent that cgroup runs with shares.
func (d *DesiredState) SetShares(cgroup string, shares int) {
	d.commit(d.set(Entry{Kind: KindShares, Cgroup: cgroup, Value: shares}))
}

// SetPlacement records the intent that tid (with identity start) lives in
// cgroup.
func (d *DesiredState) SetPlacement(tid int, start uint64, cgroup string, entity string) {
	d.commit(d.set(Entry{Kind: KindPlacement, TID: tid, Start: start, Cgroup: cgroup, Entity: entity}))
}

// set installs e under its key, bumping the version and staging a log
// record unless an identical entry is already present. It returns the
// record's sequence number for commit (0 when nothing was staged).
func (d *DesiredState) set(e Entry) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := e.Key()
	if cur, ok := d.entries[key]; ok && cur.same(e) {
		return 0
	}
	d.version++
	e.Version = d.version
	d.entries[key] = e
	return d.stageLocked(logRecord{Op: opSet, Entry: &e})
}

// ForgetThread drops the nice and placement intents for tid — the thread
// vanished (exited, or its TID was recycled), so there is nothing left to
// enforce.
func (d *DesiredState) ForgetThread(tid int) {
	d.commit(d.forgetThread(tid))
}

func (d *DesiredState) forgetThread(tid int) uint64 {
	return d.forget(Entry{Kind: KindNice, TID: tid}.Key(), Entry{Kind: KindPlacement, TID: tid}.Key())
}

// ForgetCgroup drops the shares intent for the named cgroup and every
// placement intent targeting it (used when the translator garbage-collects
// a group that left the schedule).
func (d *DesiredState) ForgetCgroup(name string) {
	d.commit(d.forgetCgroup(name))
}

func (d *DesiredState) forgetCgroup(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := []string{Entry{Kind: KindShares, Cgroup: name}.Key()}
	for key, e := range d.entries {
		if e.Kind == KindPlacement && e.Cgroup == name {
			keys = append(keys, key)
		}
	}
	return d.forgetLocked(keys...)
}

// ForgetPlacement drops only the placement intent for tid (used when the
// OS restores a thread to its pre-Lachesis cgroup on reset).
func (d *DesiredState) ForgetPlacement(tid int) {
	d.commit(d.forgetPlacement(tid))
}

func (d *DesiredState) forgetPlacement(tid int) uint64 {
	return d.forget(Entry{Kind: KindPlacement, TID: tid}.Key())
}

func (d *DesiredState) forget(keys ...string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.forgetLocked(keys...)
}

// forgetLocked deletes keys and returns the sequence number of the last
// record staged (0 when none of them was present).
func (d *DesiredState) forgetLocked(keys ...string) uint64 {
	var seq uint64
	for _, key := range keys {
		if _, ok := d.entries[key]; !ok {
			continue
		}
		d.version++
		delete(d.entries, key)
		seq = d.stageLocked(logRecord{Op: opDel, Key: key, Version: d.version})
	}
	return seq
}

// stageLocked encodes rec onto the pending batch and returns its sequence
// number (0 without a store: nothing to commit). Callers hold d.mu.
func (d *DesiredState) stageLocked(rec logRecord) uint64 {
	if d.store == nil {
		return 0
	}
	if err := d.enc.Encode(rec); err != nil {
		d.noteErrLocked(err)
		return 0
	}
	d.seq++
	return d.seq
}

// commit returns once the record numbered seq is durable (seq 0 returns
// at once). The caller that takes commitMu with its record still pending
// writes and fsyncs the whole pending batch; callers whose records that
// fsync covered find them durable and return without touching the disk.
// A failed write or fsync still releases its callers: the error is kept
// for Err().
func (d *DesiredState) commit(seq uint64) {
	if seq == 0 {
		return
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	if d.durable >= seq {
		d.mu.Unlock()
		return
	}
	d.batch = append(d.batch[:0], d.pending.Bytes()...)
	d.pending.Reset()
	upto, n := d.seq, int(d.seq-d.durable)
	d.mu.Unlock()

	err := d.store.appendLog(d.batch, n)
	if err == nil && d.ctrRecords != nil {
		d.ctrRecords.Add(int64(n))
		d.ctrSyncs.Inc()
	}

	d.mu.Lock()
	d.durable = upto
	d.noteErrLocked(err)
	// Compaction bound: once the log holds ~4x more ops than there are
	// live entries (minimum 64, so small states don't thrash), fold
	// everything into a fresh snapshot and truncate the log. Amortized
	// cost stays O(1) per mutation.
	threshold := max(4*len(d.entries), 64)
	compact := d.store.LogOps() > threshold
	d.mu.Unlock()
	if compact {
		d.compact()
	}
}

// compact folds a copy of the current entries into a fresh snapshot and
// truncates the log. Callers hold commitMu, so no log write races the
// truncation. Records still pending were applied to the copied entries
// too; committed after the truncation, they replay idempotently over the
// snapshot.
func (d *DesiredState) compact() error {
	d.mu.Lock()
	entries, version := maps.Clone(d.entries), d.version
	d.mu.Unlock()
	err := d.store.Compact(entries, version)
	if err != nil {
		d.mu.Lock()
		d.noteErrLocked(err)
		d.mu.Unlock()
	}
	return err
}

func (d *DesiredState) noteErrLocked(err error) {
	if err != nil && d.err == nil {
		d.err = err
	}
}

// Entries returns a sorted-by-key snapshot of all desired entries.
func (d *DesiredState) Entries() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Get returns the entry stored under key.
func (d *DesiredState) Get(key string) (Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[key]
	return e, ok
}

// Nice returns the desired nice entry for tid.
func (d *DesiredState) Nice(tid int) (Entry, bool) {
	return d.Get(Entry{Kind: KindNice, TID: tid}.Key())
}

// Shares returns the desired shares entry for the named cgroup.
func (d *DesiredState) Shares(name string) (Entry, bool) {
	return d.Get(Entry{Kind: KindShares, Cgroup: name}.Key())
}

// Placement returns the desired placement entry for tid.
func (d *DesiredState) Placement(tid int) (Entry, bool) {
	return d.Get(Entry{Kind: KindPlacement, TID: tid}.Key())
}

// CoalescerSeed snapshots the desired state as a core.CoalescerSeed, so a
// warm-restarted daemon can prime its write coalescer with the mirror the
// reconciler has just converged the kernel onto. Seed a coalescer only
// after a reconcile pass has run — see core.NewCoalescer.
func (d *DesiredState) CoalescerSeed() *core.CoalescerSeed {
	d.mu.Lock()
	defer d.mu.Unlock()
	seed := &core.CoalescerSeed{
		Nices:      make(map[int]int),
		Shares:     make(map[string]int),
		Placements: make(map[int]string),
	}
	for _, e := range d.entries {
		switch e.Kind {
		case KindNice:
			seed.Nices[e.TID] = e.Value
		case KindShares:
			seed.Shares[e.Cgroup] = e.Value
		case KindPlacement:
			seed.Placements[e.TID] = e.Cgroup
		}
	}
	return seed
}

// Len returns the number of desired entries.
func (d *DesiredState) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Version returns the current state version (bumped on every effective
// mutation).
func (d *DesiredState) Version() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// Err returns the first persistence error, if any. Persistence is
// best-effort: scheduling continues even when the state directory is
// gone, but the caller should surface this.
func (d *DesiredState) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Checkpoint forces a snapshot compaction now (used at clean shutdown so
// restart replays a minimal log).
func (d *DesiredState) Checkpoint() error {
	if d.store == nil {
		return nil
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	return d.compact()
}
