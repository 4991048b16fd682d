package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/telemetry"
)

// Checkpoint is one replication unit: the leader's full control-plane
// state, streamed to standbys after every tick. A standby that promotes
// resumes from its last applied checkpoint — registry and rollout state
// (with Pushed flags, so no agent is pushed twice, and the fleet-level
// last-good payload). Seq orders checkpoints within an
// epoch; the lease inside carries the epoch and doubles as the
// standby's liveness observation of the leader.
type Checkpoint struct {
	// Seq increments per published checkpoint (within the leader's
	// current term).
	Seq int64 `json:"seq"`
	// Lease is the publishing leader's lease (epoch + renewal seq).
	Lease LeaseInfo `json:"lease"`
	// Registry is the full agent registry.
	Registry []AgentRecord `json:"registry"`
	// Rollout is the rollout state machine, including mid-wave state and
	// the fleet last-good.
	Rollout RolloutState `json:"rollout"`
}

// PeerClient is one coordinator's view of another coordinator: the two
// calls HA needs. The HTTP implementation (HTTPPeer) talks to a real
// lachesis-fleet; the harness implements it in-process, and
// internal/faults wraps it with partition/lease-loss/replication-lag
// injectors.
type PeerClient interface {
	// Lease reads the peer's current lease view (GET /lease) — the
	// standby's polling fallback for leader liveness.
	Lease() (LeaseInfo, error)
	// Replicate delivers a checkpoint to the peer (POST /replicate). A
	// peer that has observed a newer epoch rejects with *FencedError.
	Replicate(cp Checkpoint) error
}

// Replicator is the leader side of state replication: it pushes each
// checkpoint to every peer and tracks per-peer acknowledgement lag.
// Replication is best-effort — an unreachable standby never blocks the
// leader's tick; it catches up from the next checkpoint (checkpoints
// are full state, not deltas).
type Replicator struct {
	mu    sync.Mutex
	peers map[string]PeerClient
	seq   int64
	acked map[string]int64
	trail *core.AuditTrail

	ctrSent   *telemetry.Counter
	ctrFailed *telemetry.Counter
	gLag      *telemetry.Gauge
}

// NewReplicator builds an empty replicator; add standbys with AddPeer.
func NewReplicator() *Replicator {
	return &Replicator{peers: map[string]PeerClient{}, acked: map[string]int64{}}
}

// AddPeer registers a standby under a stable name.
func (r *Replicator) AddPeer(name string, pc PeerClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers[name] = pc
}

// Peer returns the client registered under name (nil if absent).
func (r *Replicator) Peer(name string) PeerClient {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peers[name]
}

// Peers lists the registered peer names, sorted.
func (r *Replicator) Peers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.peers))
	for name := range r.peers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetAudit installs an audit trail for replication failures. nil
// disables.
func (r *Replicator) SetAudit(trail *core.AuditTrail) { r.mu.Lock(); r.trail = trail; r.mu.Unlock() }

// SetTelemetry registers the replication instruments.
func (r *Replicator) SetTelemetry(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctrSent = reg.Counter(MetricFleetCheckpointsTotal, telemetry.L("outcome", "sent"))
	r.ctrFailed = reg.Counter(MetricFleetCheckpointsTotal, telemetry.L("outcome", "failed"))
	r.gLag = reg.Gauge(MetricFleetReplicationLag)
}

// Publish stamps cp with the next sequence number and delivers it to
// every peer, returning how many acknowledged. Failures are counted
// and audited but never fatal.
func (r *Replicator) Publish(now time.Duration, cp Checkpoint) int {
	r.mu.Lock()
	r.seq++
	cp.Seq = r.seq
	peers := make(map[string]PeerClient, len(r.peers))
	for name, pc := range r.peers {
		peers[name] = pc
	}
	r.mu.Unlock()

	acked := 0
	for name, pc := range peers {
		err := pc.Replicate(cp)
		r.mu.Lock()
		if err != nil {
			if r.ctrFailed != nil {
				r.ctrFailed.Inc()
			}
			if r.trail != nil {
				r.trail.Record(core.AuditEvent{At: now, Kind: AuditKindFleet,
					Outcome: fmt.Sprintf("replication to %s failed (seq %d): %v", name, cp.Seq, err)})
			}
		} else {
			acked++
			r.acked[name] = cp.Seq
			if r.ctrSent != nil {
				r.ctrSent.Inc()
			}
		}
		r.exportLagLocked()
		r.mu.Unlock()
	}
	return acked
}

// Lag returns how many checkpoints behind the named peer is.
func (r *Replicator) Lag(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - r.acked[name]
}

// MaxLag returns the worst per-peer lag (0 with no peers).
func (r *Replicator) MaxLag() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxLagLocked()
}

func (r *Replicator) maxLagLocked() int64 {
	var max int64
	for name := range r.peers {
		if lag := r.seq - r.acked[name]; lag > max {
			max = lag
		}
	}
	return max
}

// exportLagLocked refreshes the lag gauge (caller holds r.mu).
func (r *Replicator) exportLagLocked() {
	if r.gLag != nil {
		r.gLag.Set(float64(r.maxLagLocked()))
	}
}

// Follower is the standby side of state replication: it validates and
// retains incoming checkpoints, persisting registry and rollout through
// the standby's own store so even a standby crash resumes warm. The
// daemon feeds each applied checkpoint's lease into its LeaseManager —
// checkpoint receipt IS leader liveness.
type Follower struct {
	mu      sync.Mutex
	store   *Store
	last    Checkpoint
	have    bool
	applied int64
}

// NewFollower builds a follower persisting through store (nil keeps
// checkpoints in memory only).
func NewFollower(store *Store) *Follower { return &Follower{store: store} }

// Apply validates and installs a checkpoint. A checkpoint from an older
// epoch than the newest applied one is rejected with *FencedError —
// replication is fenced exactly like pushes, so a deposed leader cannot
// roll a standby's state backwards. Same-epoch checkpoints must not
// regress in sequence.
func (f *Follower) Apply(cp Checkpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.have {
		if cp.Lease.Epoch < f.last.Lease.Epoch {
			return &FencedError{Agent: "standby", Have: f.last.Lease.Epoch, Got: cp.Lease.Epoch}
		}
		if cp.Lease.Epoch == f.last.Lease.Epoch && cp.Seq < f.last.Seq {
			return fmt.Errorf("fleet: stale checkpoint seq %d < %d (epoch %d)", cp.Seq, f.last.Seq, cp.Lease.Epoch)
		}
	}
	f.last = cp
	f.have = true
	f.applied++
	if f.store != nil {
		if err := f.store.SaveRegistry(cp.Registry); err != nil {
			return fmt.Errorf("replicate: persist registry: %w", err)
		}
		if err := f.store.SaveRollout(cp.Rollout); err != nil {
			return fmt.Errorf("replicate: persist rollout: %w", err)
		}
	}
	return nil
}

// Last returns the newest applied checkpoint, ok=false before any.
func (f *Follower) Last() (Checkpoint, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.have
}

// Applied returns how many checkpoints were accepted.
func (f *Follower) Applied() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// HTTPPeer is the PeerClient over another lachesis-fleet coordinator's
// HTTP API. Transport failures are marked core.ErrTransient; a 403 on
// /replicate surfaces as *FencedError.
type HTTPPeer struct {
	name string
	base string
	c    *http.Client
}

var _ PeerClient = (*HTTPPeer)(nil)

// NewHTTPPeer builds a client for one peer coordinator ("host:port" or
// full URL). timeout bounds every request (default 2s).
func NewHTTPPeer(name, addr string, timeout time.Duration) *HTTPPeer {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &HTTPPeer{name: name, base: strings.TrimRight(base, "/"), c: &http.Client{Timeout: timeout}}
}

// Lease implements PeerClient (GET /lease).
func (p *HTTPPeer) Lease() (LeaseInfo, error) {
	resp, err := p.c.Get(p.base + "/lease")
	if err != nil {
		return LeaseInfo{}, driver.MarkTransient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LeaseInfo{}, fmt.Errorf("fleet: peer %s: GET /lease: %s", p.name, resp.Status)
	}
	var info LeaseInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return LeaseInfo{}, fmt.Errorf("fleet: peer %s: decode lease: %w", p.name, err)
	}
	return info, nil
}

// Replicate implements PeerClient (POST /replicate).
func (p *HTTPPeer) Replicate(cp Checkpoint) error {
	body, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	resp, err := p.c.Post(p.base+"/replicate", "application/json", bytes.NewReader(body))
	if err != nil {
		return driver.MarkTransient(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch {
	case resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusForbidden:
		return &FencedError{Agent: p.name, Got: cp.Lease.Epoch, Body: strings.TrimSpace(string(raw))}
	case resp.StatusCode >= 500:
		return driver.MarkTransient(fmt.Errorf("fleet: peer %s: POST /replicate: %s", p.name, resp.Status))
	default:
		return fmt.Errorf("fleet: peer %s: POST /replicate: %s: %s", p.name, resp.Status, strings.TrimSpace(string(raw)))
	}
}
