package core

// The Observer is the read-back side of the OS interface: where
// OSInterface writes scheduling state (nice, shares, placement), an
// Observer reads the actual values back from the kernel. The
// reconciliation loop (internal/reconcile) diffs observed state against
// the desired state the middleware recorded, so externally-overwritten
// priorities, torn-down cgroups, and vanished threads are detected and
// repaired instead of silently accumulating — the middleware converges
// like a controller rather than firing and forgetting.
//
// internal/simctl implements it against the simulated kernel;
// internal/oslinux against a real host via /proc/<tid>/task/<tid>/stat and cgroup
// file reads.

// Observer reads actual OS scheduling state back for reconciliation.
// Observations of targets that no longer exist return errors matching
// ErrEntityVanished (IsVanished), never fabricated values.
type Observer interface {
	// ObserveNice returns a thread's current nice value.
	ObserveNice(tid int) (int, error)
	// ThreadIdentity returns a stable identity token for the thread
	// currently occupying tid (on Linux: the start-time field 22 of
	// /proc/<tid>/task/<tid>/stat). A recycled tid yields a different token, so
	// desired state keyed by (tid, identity) never mistakes the new
	// occupant for the old entity. 0 means "identity unavailable".
	ThreadIdentity(tid int) (uint64, error)
	// ObserveShares returns a cgroup's current cpu.shares (backends using
	// cgroup v2 convert cpu.weight back to the shares scale).
	ObserveShares(cgroupName string) (int, error)
	// InCgroup reports whether the thread currently lives in the named
	// Lachesis-managed cgroup. A missing cgroup is a vanished error, not
	// a false.
	InCgroup(tid int, cgroupName string) (bool, error)
}

// CacheInvalidator is the optional OS capability to drop memoized control
// state for a thread or cgroup, forcing the next apply to reach the
// kernel. Control backends cache last-applied values to absorb redundant
// re-applies; after external interference those caches lie (the cache
// says the value is already set, the kernel disagrees), so a reconciler
// must invalidate before re-applying a drifted value. Wrappers
// (AuditOS, ApplyGate, fault injectors) forward the capability down
// their chain.
type CacheInvalidator interface {
	// InvalidateThread forgets cached per-thread state (nice, placement).
	InvalidateThread(tid int)
	// InvalidateCgroup forgets cached per-cgroup state (existence,
	// shares).
	InvalidateCgroup(name string)
}

// InvalidateThreadState invalidates cached thread state through os when
// the backend (or any wrapper in its chain) supports it; a no-op
// otherwise.
func InvalidateThreadState(os OSInterface, tid int) {
	if ci, ok := os.(CacheInvalidator); ok {
		ci.InvalidateThread(tid)
	}
}

// InvalidateCgroupState invalidates cached cgroup state through os when
// the backend supports it; a no-op otherwise.
func InvalidateCgroupState(os OSInterface, name string) {
	if ci, ok := os.(CacheInvalidator); ok {
		ci.InvalidateCgroup(name)
	}
}
