// Package simos implements a deterministic, discrete-event simulation of a
// Linux-like node: kernel threads scheduled by a CFS-style fair scheduler
// with nice values and a hierarchical cgroup CPU controller (cpu.shares).
//
// It is the substrate that replaces the physical Odroid/Xeon machines of the
// Lachesis paper. The scheduling mechanisms that Lachesis manipulates are
// reproduced faithfully:
//
//   - Per-thread nice values in [-20, 19] with the CFS weight law
//     w(n) = 1024 / 1.25^n, so the CPU-share ratio of two threads is
//     1.25^(n2-n1), exactly as described in §2 of the paper.
//   - Hierarchical cgroups whose cpu.shares weight a fair-share tree;
//     nice values only compete within their own cgroup.
//   - vruntime-ordered picking with sleeper fairness, preemption at
//     timeslice granularity, and multiple CPUs.
//
// The whole node runs single-threaded on a virtual clock, so simulations are
// reproducible bit-for-bit and virtual hours complete in real seconds.
package simos

import (
	"fmt"
	"math"
	"time"
)

// Nice bounds, as on Linux.
const (
	NiceMin     = -20
	NiceMax     = 19
	NiceDefault = 0
)

// Shares bounds for the cgroup CPU controller (cgroup v1 cpu.shares).
const (
	SharesMin     = 2
	SharesMax     = 262144
	SharesDefault = 1024
)

// weightNice0 is the CFS weight of a nice-0 thread.
const weightNice0 = 1024.0

// NiceWeight returns the CFS load weight for a nice value: 1024 / 1.25^n.
// Values outside [NiceMin, NiceMax] are clamped.
func NiceWeight(nice int) float64 {
	n := ClampNice(nice)
	return weightNice0 / math.Pow(1.25, float64(n))
}

// ClampNice clamps n to the valid nice range.
func ClampNice(n int) int {
	if n < NiceMin {
		return NiceMin
	}
	if n > NiceMax {
		return NiceMax
	}
	return n
}

// ClampShares clamps s to the valid cpu.shares range.
func ClampShares(s int) int {
	if s < SharesMin {
		return SharesMin
	}
	if s > SharesMax {
		return SharesMax
	}
	return s
}

// ThreadID identifies a kernel thread. IDs start at 1.
type ThreadID int

// CgroupID identifies a cgroup. The root cgroup is RootCgroup.
type CgroupID int

// RootCgroup is the ID of the root of the cgroup hierarchy.
const RootCgroup CgroupID = 1

// Action tells the kernel what a thread does at the end of its timeslice.
type Action int

const (
	// ActionYield keeps the thread runnable; it will compete for the CPU
	// again based on its vruntime.
	ActionYield Action = iota + 1
	// ActionSleep blocks the thread until Decision.WakeAt.
	ActionSleep
	// ActionWait blocks the thread on Decision.WaitOn until woken.
	ActionWait
	// ActionExit terminates the thread.
	ActionExit
)

// Decision is a thread's report of what it did with a granted timeslice.
type Decision struct {
	// Used is the virtual CPU time consumed, in (0, granted] for
	// ActionYield and [0, granted] otherwise.
	Used time.Duration
	// Action is the thread's next disposition.
	Action Action
	// WakeAt is the absolute virtual time to wake at (ActionSleep).
	WakeAt time.Duration
	// WaitOn is the wait queue to block on (ActionWait).
	WaitOn *WaitQueue
	// WaitUnless, if set, is re-checked when the wait is applied (at the
	// end of the timeslice): if it returns true the thread stays runnable
	// instead of blocking. This closes the classic lost-wakeup race where
	// the condition becomes true between the thread's decision to wait and
	// the wait taking effect.
	WaitUnless func(now time.Duration) bool
}

// Runner is the behaviour of a thread. The kernel grants the thread CPU in
// timeslices; Run must simulate up to granted virtual CPU time and report
// what happened. Run is always called from the single simulation goroutine.
type Runner interface {
	Run(ctx *RunContext, granted time.Duration) Decision
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx *RunContext, granted time.Duration) Decision

// Run implements Runner.
func (f RunnerFunc) Run(ctx *RunContext, granted time.Duration) Decision {
	return f(ctx, granted)
}

// RunContext is passed to Runner.Run. It exposes the virtual time and lets
// the runner request wake-ups of threads blocked on wait queues. Wakes take
// effect when the timeslice ends.
//
// Each simulated CPU owns one RunContext and reuses it for every slice it
// dispatches, so a Runner must not keep the pointer (or anything that
// captures it) after Run returns: by the next slice on that CPU it holds
// another thread's time and wakes.
type RunContext struct {
	now   time.Duration
	wakes []*WaitQueue
}

// Now returns the virtual time at the start of the timeslice.
func (c *RunContext) Now() time.Duration { return c.now }

// Wake requests that all threads blocked on wq become runnable when the
// current timeslice ends. Waking an empty queue is a no-op.
func (c *RunContext) Wake(wq *WaitQueue) {
	if wq == nil {
		return
	}
	c.wakes = append(c.wakes, wq)
}

// WaitQueue is a set of threads blocked until woken, analogous to a kernel
// wait queue. Create with Kernel.NewWaitQueue.
type WaitQueue struct {
	name    string
	waiters []*thread
}

// Name returns the queue's diagnostic name.
func (wq *WaitQueue) Name() string { return wq.name }

// Len returns the number of blocked threads.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// NotFoundError reports an unknown thread or cgroup ID.
type NotFoundError struct {
	Kind string // "thread" or "cgroup"
	ID   int
}

// Error implements error.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("simos: %s %d not found", e.Kind, e.ID)
}
