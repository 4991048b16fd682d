package reconcile

import (
	"sync"
	"time"

	"fmt"

	"lachesis/internal/core"
	"lachesis/internal/span"
	"lachesis/internal/telemetry"
)

// DriftClass labels why observed OS state diverged from desired.
type DriftClass string

// The drift taxonomy. Every divergence the reconciler can detect falls
// into exactly one class, and the class decides the remedy:
//
//   - external-overwrite: the entity still exists but carries a different
//     nice/shares value — another agent wrote over us. Remedy: invalidate
//     caches, re-apply the desired value.
//   - lost-on-exec: the thread still exists (same identity) but is no
//     longer in its desired cgroup — membership was dropped (cgroup
//     recreated, thread re-execed, manual echo into tasks). Remedy:
//     re-place the thread.
//   - vanished-entity: the thread is gone, or the TID now belongs to a
//     different thread (identity/start-time mismatch — the PID-reuse
//     case). Remedy: forget the entry; repairing would sabotage an
//     innocent bystander.
//   - cgroup-deleted: the desired cgroup no longer exists. Remedy:
//     recreate it and restore its shares (placements repair in the same
//     pass right after).
const (
	DriftExternalOverwrite DriftClass = "external-overwrite"
	DriftLostOnExec        DriftClass = "lost-on-exec"
	DriftVanishedEntity    DriftClass = "vanished-entity"
	DriftCgroupDeleted     DriftClass = "cgroup-deleted"
)

// Reconciler telemetry metric names.
const (
	MetricPasses       = "lachesis_reconcile_passes_total"
	MetricChecked      = "lachesis_reconcile_checked_total"
	MetricDrift        = "lachesis_reconcile_drift_total"   // label class
	MetricRepairs      = "lachesis_reconcile_repairs_total" // label class
	MetricRepairErrors = "lachesis_reconcile_repair_errors_total"
	MetricDeferred     = "lachesis_reconcile_deferred_total"
	MetricForgotten    = "lachesis_reconcile_forgotten_total"
	MetricLastDrift    = "lachesis_reconcile_last_drift"
	MetricConverged    = "lachesis_reconcile_converged"
	MetricPassDuration = "lachesis_reconcile_pass_seconds"
	// MetricLogRecords and MetricLogSyncs count the desired-state log's
	// committed records and the fsyncs that made them durable (see
	// DesiredState.SetTelemetry).
	MetricLogRecords = "lachesis_reconcile_log_records_total"
	MetricLogSyncs   = "lachesis_reconcile_log_syncs_total"
)

// DefaultMaxRepairsPerPass bounds corrective writes per pass: if another
// agent fights Lachesis over every entity, the fight degrades to bounded
// churn (MaxRepairsPerPass writes per interval) instead of a hot loop.
const DefaultMaxRepairsPerPass = 64

// Config assembles a Reconciler.
type Config struct {
	// OS is the write path for repairs — the SAME gated chain the
	// middleware's translators use, so repairs and applies serialize
	// (core.ApplyGate) and flush the chain's value caches
	// (core.CacheInvalidator) before re-applying.
	OS core.OSInterface
	// Observer reads actual kernel state (the ungated backend is fine:
	// observations are read-only).
	Observer core.Observer
	// State is the desired state to converge toward.
	State *DesiredState
	// Audit optionally receives drift/repair events.
	Audit *core.AuditTrail
	// Telemetry optionally receives reconcile_* metrics.
	Telemetry *telemetry.Registry
	// MaxRepairsPerPass caps corrective writes per pass (<=0 selects
	// DefaultMaxRepairsPerPass). Forgetting vanished entries is not
	// budgeted — dropping dead state is free and always safe.
	MaxRepairsPerPass int
	// SharesTolerance treats |observed-desired| <= tolerance shares as
	// converged. cgroup v2 stores weights, and the shares->weight->shares
	// round trip quantizes by up to ~27 shares; v1 and the simulator are
	// exact (0).
	SharesTolerance int
	// Now stamps audit events with the caller's step time (virtual or
	// wall). nil stamps 0.
	Now func() time.Duration
	// Clock measures pass duration for the pass_seconds histogram. nil
	// selects time.Now (tests inject a fake).
	Clock func() time.Time
	// Spans optionally records one "reconcile" span per pass, annotated
	// with the drift/repair counts, so slow repair passes show up in the
	// same causal trace view as the decision cycle. nil disables.
	Spans *span.Recorder
}

// PassResult summarizes one reconcile pass.
type PassResult struct {
	// Checked is how many desired entries were examined.
	Checked int
	// Drifted is how many entries diverged from desired (all classes).
	Drifted int
	// Repaired is how many corrective writes succeeded.
	Repaired int
	// Forgotten is how many vanished entries were dropped.
	Forgotten int
	// Deferred is how many repairs were pushed to the next pass by the
	// repair budget.
	Deferred int
	// Errors is how many observations or repairs failed (non-vanished).
	Errors int
	// ByClass breaks Drifted down by drift class.
	ByClass map[DriftClass]int
	// Converged is true when nothing drifted and nothing was deferred:
	// observed state already matched desired everywhere.
	Converged bool
}

// Status is the reconciler's lifetime summary, for /health and tests.
type Status struct {
	// Passes counts completed reconcile passes.
	Passes int64
	// TotalDrift and TotalRepairs accumulate across passes.
	TotalDrift   int64
	TotalRepairs int64
	// Last is the most recent pass result.
	Last PassResult
	// LastConvergedAt is the Now() stamp of the most recent converged
	// pass (-1 before the first convergence).
	LastConvergedAt time.Duration
	// EverConverged reports whether any pass has converged yet.
	EverConverged bool
}

// Reconciler drives desired state toward kernel reality, one budgeted
// pass at a time.
type Reconciler struct {
	cfg Config

	mu     sync.Mutex
	status Status
}

// New creates a Reconciler. OS, Observer, and State are required.
func New(cfg Config) *Reconciler {
	if cfg.MaxRepairsPerPass <= 0 {
		cfg.MaxRepairsPerPass = DefaultMaxRepairsPerPass
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Reconciler{cfg: cfg, status: Status{LastConvergedAt: -1}}
}

// Status returns the lifetime summary.
func (r *Reconciler) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// pass carries the scratch state of one Reconcile call.
type pass struct {
	res       PassResult
	budget    int
	at        time.Duration
	identity  map[int]uint64 // tid -> observed identity (cached per pass)
	vanished  map[int]bool   // tids forgotten this pass
	recreated map[string]bool
}

// Reconcile runs one pass: observe every desired entry, classify drift,
// repair within budget, forget the vanished. Safe to call from a
// different goroutine than the middleware's Step loop *provided* cfg.OS
// is an ApplyGate chain.
func (r *Reconciler) Reconcile() PassResult {
	start := r.cfg.Clock()
	act := r.cfg.Spans.StartRoot(r.cfg.Now(), "reconcile")
	p := &pass{
		res:       PassResult{ByClass: make(map[DriftClass]int)},
		budget:    r.cfg.MaxRepairsPerPass,
		at:        r.cfg.Now(),
		identity:  make(map[int]uint64),
		vanished:  make(map[int]bool),
		recreated: make(map[string]bool),
	}

	entries := r.cfg.State.Entries()
	// Shares first (recreating deleted groups), then placement (threads
	// can re-enter recreated groups in the same pass), then nice.
	for _, e := range entries {
		if e.Kind == KindShares {
			r.checkShares(p, e)
		}
	}
	for _, e := range entries {
		if e.Kind == KindPlacement {
			r.checkPlacement(p, e)
		}
	}
	for _, e := range entries {
		if e.Kind == KindNice {
			r.checkNice(p, e)
		}
	}

	p.res.Converged = p.res.Drifted == 0 && p.res.Deferred == 0
	act.SetAttr("checked", fmt.Sprint(p.res.Checked))
	act.SetAttr("drifted", fmt.Sprint(p.res.Drifted))
	act.SetAttr("repaired", fmt.Sprint(p.res.Repaired))
	r.finishPass(p, r.cfg.Clock().Sub(start))
	act.End(nil)
	return p.res
}

// finishPass folds the pass into status and telemetry.
func (r *Reconciler) finishPass(p *pass, took time.Duration) {
	r.mu.Lock()
	r.status.Passes++
	r.status.TotalDrift += int64(p.res.Drifted)
	r.status.TotalRepairs += int64(p.res.Repaired)
	r.status.Last = p.res
	if p.res.Converged {
		r.status.LastConvergedAt = p.at
		r.status.EverConverged = true
	}
	r.mu.Unlock()

	if t := r.cfg.Telemetry; t != nil {
		t.Counter(MetricPasses).Inc()
		t.Counter(MetricChecked).Add(int64(p.res.Checked))
		for class, n := range p.res.ByClass {
			t.Counter(MetricDrift, telemetry.L("class", string(class))).Add(int64(n))
		}
		t.Counter(MetricRepairErrors).Add(int64(p.res.Errors))
		t.Counter(MetricDeferred).Add(int64(p.res.Deferred))
		t.Counter(MetricForgotten).Add(int64(p.res.Forgotten))
		t.Gauge(MetricLastDrift).Set(float64(p.res.Drifted))
		if p.res.Converged {
			t.Gauge(MetricConverged).Set(1)
		} else {
			t.Gauge(MetricConverged).Set(0)
		}
		t.Histogram(MetricPassDuration).Observe(took)
	}
}

// identityOf observes tid's identity once per pass. ok=false means the
// thread is gone.
func (r *Reconciler) identityOf(p *pass, tid int) (uint64, bool) {
	if id, seen := p.identity[tid]; seen {
		return id, true
	}
	id, err := r.cfg.Observer.ThreadIdentity(tid)
	if err != nil {
		if !core.IsVanished(err) {
			p.res.Errors++
		}
		return 0, false
	}
	p.identity[tid] = id
	return id, true
}

// threadGone classifies a thread entry whose occupant vanished or whose
// identity no longer matches, forgetting the entry. Returns true when
// the entry is dead and the caller must stop.
func (r *Reconciler) threadGone(p *pass, e Entry) bool {
	if p.vanished[e.TID] {
		return true
	}
	id, alive := r.identityOf(p, e.TID)
	mismatch := alive && e.Start != 0 && id != 0 && id != e.Start
	if alive && !mismatch {
		return false
	}
	// Dead, or the TID was recycled by an unrelated thread: either way
	// the entity this entry described is gone. Forget, never "repair" —
	// renicing a recycled TID would hit an innocent process.
	p.vanished[e.TID] = true
	p.res.Drifted++
	p.res.ByClass[DriftVanishedEntity]++
	p.res.Forgotten++
	r.cfg.State.ForgetThread(e.TID)
	// Death was discovered by observation, not by a failed write, so the
	// write chain never saw a vanished error: evict the tid from every
	// value cache (coalescer mirror, backend memos) or a recycled TID's
	// first write at the dead thread's old value would be suppressed.
	core.InvalidateThreadState(r.cfg.OS, e.TID)
	r.audit(core.AuditEvent{
		At: p.at, Kind: core.AuditKindDrift, Thread: e.TID, Entity: e.Entity,
		Outcome: string(DriftVanishedEntity),
	})
	if t := r.cfg.Telemetry; t != nil {
		t.Counter(MetricRepairs, telemetry.L("class", string(DriftVanishedEntity))).Inc()
	}
	return true
}

// spendBudget reserves one repair slot, counting a deferral when the
// pass budget is exhausted.
func (p *pass) spendBudget() bool {
	if p.budget <= 0 {
		p.res.Deferred++
		return false
	}
	p.budget--
	return true
}

func (r *Reconciler) checkShares(p *pass, e Entry) {
	p.res.Checked++
	obs, err := r.cfg.Observer.ObserveShares(e.Cgroup)
	switch {
	case core.IsVanished(err):
		r.driftShares(p, e, DriftCgroupDeleted, nil)
	case err != nil:
		p.res.Errors++
	default:
		diff := obs - e.Value
		if diff < 0 {
			diff = -diff
		}
		if diff > r.cfg.SharesTolerance {
			r.driftShares(p, e, DriftExternalOverwrite, &obs)
		}
	}
}

// driftShares records shares drift and repairs it: recreate the group if
// deleted, flush caches, re-apply the desired shares.
func (r *Reconciler) driftShares(p *pass, e Entry, class DriftClass, observed *int) {
	p.res.Drifted++
	p.res.ByClass[class]++
	ev := core.AuditEvent{
		At: p.at, Kind: core.AuditKindDrift, Cgroup: e.Cgroup,
		NewShares: &e.Value, Outcome: string(class),
	}
	ev.OldShares = observed
	r.audit(ev)
	if !p.spendBudget() {
		return
	}
	core.InvalidateCgroupState(r.cfg.OS, e.Cgroup)
	var err error
	if class == DriftCgroupDeleted {
		err = r.cfg.OS.EnsureCgroup(e.Cgroup)
		if err == nil {
			p.recreated[e.Cgroup] = true
		}
	}
	if err == nil {
		err = r.cfg.OS.SetShares(e.Cgroup, e.Value)
	}
	r.repairDone(p, class, core.AuditEvent{
		At: p.at, Kind: core.AuditKindRepair, Cgroup: e.Cgroup, NewShares: &e.Value,
	}, err)
}

func (r *Reconciler) checkPlacement(p *pass, e Entry) {
	p.res.Checked++
	if r.threadGone(p, e) {
		return
	}
	in, err := r.cfg.Observer.InCgroup(e.TID, e.Cgroup)
	switch {
	case core.IsVanished(err):
		// The cgroup itself is missing and had no shares entry to
		// recreate it this pass (otherwise checkShares ran first).
		if p.recreated[e.Cgroup] {
			// Recreated moments ago but the move still has to happen.
			in = false
		} else {
			r.driftPlacementInto(p, e, DriftCgroupDeleted, true)
			return
		}
	case err != nil:
		p.res.Errors++
		return
	}
	if in {
		return
	}
	r.driftPlacementInto(p, e, DriftLostOnExec, false)
}

// driftPlacementInto records placement drift and moves the thread back,
// ensuring the target group exists when it was deleted.
func (r *Reconciler) driftPlacementInto(p *pass, e Entry, class DriftClass, ensure bool) {
	p.res.Drifted++
	p.res.ByClass[class]++
	r.audit(core.AuditEvent{
		At: p.at, Kind: core.AuditKindDrift, Thread: e.TID, Cgroup: e.Cgroup,
		Entity: e.Entity, Outcome: string(class),
	})
	if !p.spendBudget() {
		return
	}
	core.InvalidateThreadState(r.cfg.OS, e.TID)
	var err error
	if ensure {
		core.InvalidateCgroupState(r.cfg.OS, e.Cgroup)
		err = r.cfg.OS.EnsureCgroup(e.Cgroup)
	}
	if err == nil {
		err = r.cfg.OS.MoveThread(e.TID, e.Cgroup)
	}
	if core.IsVanished(err) {
		// Thread died between the identity check and the move.
		p.vanished[e.TID] = true
		p.res.Forgotten++
		r.cfg.State.ForgetThread(e.TID)
		return
	}
	r.repairDone(p, class, core.AuditEvent{
		At: p.at, Kind: core.AuditKindRepair, Thread: e.TID, Cgroup: e.Cgroup, Entity: e.Entity,
	}, err)
}

func (r *Reconciler) checkNice(p *pass, e Entry) {
	p.res.Checked++
	if r.threadGone(p, e) {
		return
	}
	obs, err := r.cfg.Observer.ObserveNice(e.TID)
	switch {
	case core.IsVanished(err):
		p.vanished[e.TID] = true
		p.res.Drifted++
		p.res.ByClass[DriftVanishedEntity]++
		p.res.Forgotten++
		r.cfg.State.ForgetThread(e.TID)
		return
	case err != nil:
		p.res.Errors++
		return
	}
	if obs == e.Value {
		return
	}
	p.res.Drifted++
	p.res.ByClass[DriftExternalOverwrite]++
	r.audit(core.AuditEvent{
		At: p.at, Kind: core.AuditKindDrift, Thread: e.TID, Entity: e.Entity,
		OldNice: &obs, NewNice: &e.Value, Outcome: string(DriftExternalOverwrite),
	})
	if !p.spendBudget() {
		return
	}
	core.InvalidateThreadState(r.cfg.OS, e.TID)
	err = r.cfg.OS.SetNice(e.TID, e.Value)
	if core.IsVanished(err) {
		p.vanished[e.TID] = true
		p.res.Forgotten++
		r.cfg.State.ForgetThread(e.TID)
		return
	}
	r.repairDone(p, DriftExternalOverwrite, core.AuditEvent{
		At: p.at, Kind: core.AuditKindRepair, Thread: e.TID, Entity: e.Entity, NewNice: &e.Value,
	}, err)
}

// repairDone accounts one attempted repair and audits its outcome.
func (r *Reconciler) repairDone(p *pass, class DriftClass, ev core.AuditEvent, err error) {
	if err == nil {
		p.res.Repaired++
		ev.Outcome = core.AuditOutcomeOK
		if t := r.cfg.Telemetry; t != nil {
			t.Counter(MetricRepairs, telemetry.L("class", string(class))).Inc()
		}
	} else {
		p.res.Errors++
		ev.Outcome = err.Error()
	}
	r.audit(ev)
}

func (r *Reconciler) audit(ev core.AuditEvent) {
	if r.cfg.Audit != nil {
		r.cfg.Audit.Record(ev)
	}
}
