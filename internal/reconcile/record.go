package reconcile

import "lachesis/internal/core"

// RecordingOS wraps an OSInterface so every successful control write is
// mirrored into a DesiredState — the middleware's intent is captured at
// the exact point it becomes kernel state, with no translator changes.
// Wrap it *inside* the ApplyGate and around the audit wrapper:
//
//	gated := core.NewApplyGate(reconcile.RecordOS(core.AuditOS(ctl, trail), state, ident, names))
//
// ident supplies the thread identity token (core.Observer.ThreadIdentity)
// at record time, so desired entries are keyed to the thread occupying
// the TID *now*, not whatever recycles the TID later. nil (or an erroring
// lookup) records identity 0 = unknown, which disables the identity check
// for that entry.
type RecordingOS struct {
	inner core.OSInterface
	state *DesiredState
	ident func(tid int) uint64
	// entityOf optionally resolves a TID to an operator name for audit
	// attribution in desired entries.
	entityOf func(tid int) string
}

var (
	_ core.OSInterface       = (*RecordingOS)(nil)
	_ core.BatchApplier      = (*RecordingOS)(nil)
	_ core.CgroupRemover     = (*RecordingOS)(nil)
	_ core.PlacementRestorer = (*RecordingOS)(nil)
	_ core.CacheInvalidator  = (*RecordingOS)(nil)
)

// RecordOS wraps inner so successful writes update state. ident and
// entityOf may be nil.
func RecordOS(inner core.OSInterface, state *DesiredState, ident func(tid int) uint64, entityOf func(tid int) string) *RecordingOS {
	if ident == nil {
		ident = func(int) uint64 { return 0 }
	}
	if entityOf == nil {
		entityOf = func(int) string { return "" }
	}
	return &RecordingOS{inner: inner, state: state, ident: ident, entityOf: entityOf}
}

// SetNice implements core.OSInterface.
func (r *RecordingOS) SetNice(tid, nice int) error {
	return r.apply(core.ControlOp{Kind: core.OpSetNice, Thread: tid, Value: nice})
}

// EnsureCgroup implements core.OSInterface. Creation alone records
// nothing: a cgroup only matters to reconciliation once it carries
// shares (translators always SetShares right after EnsureCgroup).
func (r *RecordingOS) EnsureCgroup(name string) error {
	return r.inner.EnsureCgroup(name)
}

// SetShares implements core.OSInterface.
func (r *RecordingOS) SetShares(name string, shares int) error {
	return r.apply(core.ControlOp{Kind: core.OpSetShares, Cgroup: name, Value: shares})
}

// MoveThread implements core.OSInterface.
func (r *RecordingOS) MoveThread(tid int, name string) error {
	return r.apply(core.ControlOp{Kind: core.OpMoveThread, Thread: tid, Cgroup: name})
}

// RemoveCgroup implements core.CgroupRemover: the group's shares intent
// and every placement into it are forgotten — the middleware decided the
// group should not exist, so reconciliation must not resurrect it.
func (r *RecordingOS) RemoveCgroup(name string) error {
	return r.apply(core.ControlOp{Kind: core.OpRemoveCgroup, Cgroup: name})
}

// RestoreThread implements core.PlacementRestorer: the thread returned to
// its pre-Lachesis cgroup, so the placement intent dissolves.
func (r *RecordingOS) RestoreThread(tid int) error {
	return r.apply(core.ControlOp{Kind: core.OpRestoreThread, Thread: tid})
}

// ApplyBatch implements core.BatchApplier: the ops are applied in order
// (through inner's own ApplyBatch when it has one), each outcome is
// recorded exactly as the single-op methods record it, and the batch's
// records are committed together, so a coalescer flush costs at most one
// fsync. Like every write here, it returns only once its records are
// durable.
func (r *RecordingOS) ApplyBatch(ops []core.ControlOp, errs []error) {
	if ba, ok := r.inner.(core.BatchApplier); ok {
		ba.ApplyBatch(ops, errs)
	} else {
		for i, op := range ops {
			errs[i] = core.ApplyOp(r.inner, op)
		}
	}
	var seq uint64
	for i, op := range ops {
		seq = max(seq, r.record(op, errs[i]))
	}
	r.state.commit(seq)
}

// apply performs one op, records its outcome and waits for the record to
// be durable.
func (r *RecordingOS) apply(op core.ControlOp) error {
	err := core.ApplyOp(r.inner, op)
	r.state.commit(r.record(op, err))
	return err
}

// record stages the desired-state change one op's outcome implies and
// returns its log sequence number for commit (0 when nothing changed). A
// successful write records the intent; a write that found its target
// vanished forgets it; removals and restores dissolve intents even when
// the target is already gone (or the backend lacks the capability).
func (r *RecordingOS) record(op core.ControlOp, err error) uint64 {
	vanished := core.IsVanished(err)
	switch op.Kind {
	case core.OpSetNice:
		if err == nil {
			return r.state.set(Entry{Kind: KindNice, TID: op.Thread, Start: r.ident(op.Thread), Value: op.Value, Entity: r.entityOf(op.Thread)})
		}
		if vanished {
			return r.state.forgetThread(op.Thread)
		}
	case core.OpSetShares:
		if err == nil {
			return r.state.set(Entry{Kind: KindShares, Cgroup: op.Cgroup, Value: op.Value})
		}
		if vanished {
			return r.state.forgetCgroup(op.Cgroup)
		}
	case core.OpMoveThread:
		if err == nil {
			return r.state.set(Entry{Kind: KindPlacement, TID: op.Thread, Start: r.ident(op.Thread), Cgroup: op.Cgroup, Entity: r.entityOf(op.Thread)})
		}
		if vanished {
			return r.state.forgetThread(op.Thread)
		}
	case core.OpRemoveCgroup:
		if err == nil || vanished {
			return r.state.forgetCgroup(op.Cgroup)
		}
	case core.OpRestoreThread:
		if err == nil || vanished {
			return r.state.forgetPlacement(op.Thread)
		}
	}
	return 0
}

// InvalidateThread implements core.CacheInvalidator (pass-through; the
// desired state is intent, not a cache — invalidation never touches it).
func (r *RecordingOS) InvalidateThread(tid int) {
	core.InvalidateThreadState(r.inner, tid)
}

// InvalidateCgroup implements core.CacheInvalidator.
func (r *RecordingOS) InvalidateCgroup(name string) {
	core.InvalidateCgroupState(r.inner, name)
}
