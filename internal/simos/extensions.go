package simos

import (
	"fmt"
	"slices"
	"time"
)

// This file implements the OS mechanisms from the paper's future-work list
// (§8): CPU bandwidth quotas (CFS bandwidth control, cpu.cfs_quota_us),
// real-time scheduling classes (SCHED_FIFO-like), and pressure stall
// information (PSI) accounting.

// --- CPU bandwidth control (quota) ---

// DefaultQuotaPeriod mirrors the kernel's default cpu.cfs_period_us.
const DefaultQuotaPeriod = 100 * time.Millisecond

// SetQuota limits the CPU time the threads of a cgroup may consume per
// period (CFS bandwidth control). quota <= 0 removes the limit. Groups
// that exhaust their quota are throttled until the next period refill.
func (k *Kernel) SetQuota(id CgroupID, quota, period time.Duration) error {
	g, ok := k.cgroups[id]
	if !ok {
		return &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	if id == RootCgroup {
		return fmt.Errorf("simos: cannot set quota on the root cgroup")
	}
	if period <= 0 {
		period = DefaultQuotaPeriod
	}
	if quota <= 0 {
		g.quota = 0
		if g.throttled {
			k.unthrottle(g)
			k.kickIdleCPUs()
		}
		return nil
	}
	g.quota = quota
	g.quotaPeriod = period
	return nil
}

// Quota returns a cgroup's quota and period (0 quota = unlimited).
func (k *Kernel) Quota(id CgroupID) (quota, period time.Duration, err error) {
	g, ok := k.cgroups[id]
	if !ok {
		return 0, 0, &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	return g.quota, g.quotaPeriod, nil
}

// chargeQuota accounts used CPU against the quota of g and its ancestors,
// throttling any group that exceeds its allowance.
func (k *Kernel) chargeQuota(g *cgroup, used time.Duration) {
	for ; g != nil; g = g.parent {
		if g.quota <= 0 {
			continue
		}
		// Lazily roll the consumption window forward.
		period := k.now / g.quotaPeriod
		if period != g.quotaWindow {
			g.quotaWindow = period
			g.quotaUsed = 0
		}
		g.quotaUsed += used
		if g.quotaUsed >= g.quota && !g.throttled {
			g.throttled = true
			g.throttleEvents++
			refill := (period + 1) * g.quotaPeriod
			k.schedule(event{at: refill, kind: eventRefill, group: g})
		}
	}
}

// unthrottle clears a group's throttle state.
func (k *Kernel) unthrottle(g *cgroup) {
	g.throttled = false
	g.quotaUsed = 0
	g.quotaWindow = k.now / maxDur(g.quotaPeriod, 1)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// ThrottleEvents returns how many times a cgroup has been throttled.
func (k *Kernel) ThrottleEvents(id CgroupID) (int64, error) {
	g, ok := k.cgroups[id]
	if !ok {
		return 0, &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	return g.throttleEvents, nil
}

// RemoveCgroup deletes an empty cgroup (no threads, no children), like
// rmdir on the cgroup filesystem. The root cannot be removed.
func (k *Kernel) RemoveCgroup(id CgroupID) error {
	g, ok := k.cgroups[id]
	if !ok {
		return &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	if id == RootCgroup {
		return fmt.Errorf("simos: cannot remove the root cgroup")
	}
	for _, t := range g.threads {
		if t.state != stateExited {
			return fmt.Errorf("simos: cgroup %d not empty", id)
		}
	}
	if len(g.children) > 0 {
		return fmt.Errorf("simos: cgroup %d not empty", id)
	}
	parent := g.parent
	for i, c := range parent.children {
		if c == g {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			break
		}
	}
	delete(k.cgroups, id)
	return nil
}

// --- real-time scheduling class ---

// RT priority bounds (SCHED_FIFO).
const (
	RTPrioMin = 1
	RTPrioMax = 99
)

// SetRealtime moves a thread into the real-time class with the given
// priority (higher runs first). Real-time threads always run before any
// fair-class thread, as SCHED_FIFO does.
func (k *Kernel) SetRealtime(id ThreadID, prio int) error {
	t, ok := k.liveThread(id)
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	if prio < RTPrioMin {
		prio = RTPrioMin
	}
	if prio > RTPrioMax {
		prio = RTPrioMax
	}
	if t.rtPrio == 0 {
		k.addRT(t)
	}
	t.rtPrio = prio
	return nil
}

// SetNormal returns a thread to the fair class.
func (k *Kernel) SetNormal(id ThreadID) error {
	t, ok := k.liveThread(id)
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	k.removeRT(t)
	t.rtPrio = 0
	return nil
}

// IsRealtime reports whether a thread is in the real-time class, and its
// priority.
func (k *Kernel) IsRealtime(id ThreadID) (bool, int, error) {
	t, ok := k.threads[id]
	if !ok {
		return false, 0, &NotFoundError{Kind: "thread", ID: int(id)}
	}
	return t.rtPrio > 0, t.rtPrio, nil
}

// pickRT returns the runnable real-time thread with the highest priority
// (FIFO within a priority: lowest id as a deterministic stand-in for
// arrival order). k.rt is kept in id order, so the first thread seen at
// the best priority wins.
func (k *Kernel) pickRT() *thread {
	var best *thread
	for _, t := range k.rt {
		if t.state != stateRunnable {
			continue
		}
		if best == nil || t.rtPrio > best.rtPrio {
			best = t
		}
	}
	return best
}

// addRT inserts a thread entering the real-time class into k.rt, keeping
// id order.
func (k *Kernel) addRT(t *thread) {
	i := len(k.rt)
	for i > 0 && k.rt[i-1].id > t.id {
		i--
	}
	k.rt = slices.Insert(k.rt, i, t)
}

// removeRT drops a thread from k.rt; it is a no-op for fair-class threads.
func (k *Kernel) removeRT(t *thread) {
	if i := slices.Index(k.rt, t); i >= 0 {
		k.rt = slices.Delete(k.rt, i, i+1)
	}
}

// --- pressure stall information (PSI) ---

// PSI returns a cgroup's cumulative "some" CPU stall time: the total time
// during which at least one of its threads was runnable but not running
// (the signal of /proc/pressure/cpu, future-work item 4 of §8). Callers
// diff two readings to compute pressure over a window.
func (k *Kernel) PSI(id CgroupID) (time.Duration, error) {
	g, ok := k.cgroups[id]
	if !ok {
		return 0, &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	total := g.stallTime
	if g.nrPickable > 0 && !g.stallSince.IsZero() {
		total += k.now - g.stallSince.t
	}
	return total, nil
}

// stallClock is a nullable virtual timestamp.
type stallClock struct {
	t     time.Duration
	valid bool
}

func (s stallClock) IsZero() bool { return !s.valid }

// notePickable updates PSI accounting when a group's pickable count
// transitions between zero and non-zero. A group with pickable (runnable
// but not running) threads is stalling.
func (k *Kernel) notePickable(g *cgroup, before, after int) {
	switch {
	case before == 0 && after > 0:
		g.stallSince = stallClock{t: k.now, valid: true}
	case before > 0 && after == 0:
		if !g.stallSince.IsZero() {
			g.stallTime += k.now - g.stallSince.t
			g.stallSince = stallClock{}
		}
	}
}
