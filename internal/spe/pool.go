package spe

import (
	"time"

	"lachesis/internal/simos"
)

// TaskScheduler is the decision logic of a user-level streaming scheduler
// (UL-SS). Implementations (EdgeWise, Haren — see internal/ulss) pick which
// physical operator each pool worker executes next. This reproduces the
// state-of-the-art baselines the paper compares against: operators run as
// user-level tasks on a small pool of kernel threads, with fresh in-engine
// metrics but all the UL-SS drawbacks (blocking operations stall a whole
// worker).
type TaskScheduler interface {
	// Register adds newly deployed operators to the scheduler's task set.
	Register(ops []*PhysicalOp)
	// Next picks the operator to run at virtual time now among those for
	// which canRun returns true, or nil if none should run.
	Next(now time.Duration, canRun func(*PhysicalOp) bool) *PhysicalOp
	// TaskDone reports that an operator ran for used CPU time.
	TaskDone(op *PhysicalOp, used time.Duration)
}

// workerPool executes all deployed operators on a fixed set of kernel
// threads, consulting a TaskScheduler for every pick.
type workerPool struct {
	engine *Engine
	sched  TaskScheduler
	batch  time.Duration
	waitQ  *simos.WaitQueue
	// busyUntil marks operators held by a worker until the given virtual
	// time: a worker's timeslice (and any blocking call) occupies the
	// operator for its wall duration, so no other worker may run it
	// meanwhile — operators are single-threaded user-level tasks.
	busyUntil map[*PhysicalOp]time.Duration
	// pickOverhead is charged when a worker wakes up and finds nothing to
	// do, modeling the UL-SS dispatch cost.
	pickOverhead time.Duration
	// anyReadyFn is anyReady bound once: an idle worker's WaitUnless.
	anyReadyFn func(time.Duration) bool
}

func newWorkerPool(e *Engine, sched TaskScheduler, workers int, batch time.Duration) *workerPool {
	if batch <= 0 {
		batch = time.Millisecond
	}
	wp := &workerPool{
		engine:       e,
		sched:        sched,
		batch:        batch,
		waitQ:        e.kernel.NewWaitQueue(e.cfg.Name + ".pool"),
		busyUntil:    make(map[*PhysicalOp]time.Duration),
		pickOverhead: 2 * time.Microsecond,
	}
	wp.anyReadyFn = wp.anyReady
	return wp
}

func (wp *workerPool) spawnWorkers(n int) error {
	for i := 0; i < n; i++ {
		name := wp.engine.cfg.Name + ".worker"
		if _, err := wp.engine.kernel.Spawn(name, wp.engine.cgroup, wp.workerRunner(i)); err != nil {
			return err
		}
	}
	return nil
}

// anyReady reports whether some pooled operator has runnable work that no
// worker currently holds.
func (wp *workerPool) anyReady(now time.Duration) bool {
	return wp.anyPooledReady(now, false)
}

// anyHeldReady reports whether some pooled operator has work but is
// occupied by another worker's in-flight slice.
func (wp *workerPool) anyHeldReady(now time.Duration) bool {
	return wp.anyPooledReady(now, true)
}

// anyPooledReady reports whether some pooled operator is Ready at now and
// held (or not held) by a worker. It walks the live deployments in place
// of Engine.Ops, which copies; stopped operators are never Ready.
func (wp *workerPool) anyPooledReady(now time.Duration, held bool) bool {
	for _, d := range wp.engine.deployments {
		for _, op := range d.ops {
			if op.pooled && (now < wp.busyUntil[op]) == held && op.Ready(now) {
				return true
			}
		}
	}
	return false
}

func (wp *workerPool) workerRunner(worker int) simos.Runner {
	var lastOp *PhysicalOp
	// now is the current slice's start; canRun, the filter handed to the
	// scheduler, is built once and reads it.
	var now time.Duration
	canRun := func(p *PhysicalOp) bool {
		return now >= wp.busyUntil[p] && p.Ready(now)
	}
	return simos.RunnerFunc(func(ctx *simos.RunContext, granted time.Duration) simos.Decision {
		budget := granted
		if wp.batch < budget {
			budget = wp.batch
		}
		now = ctx.Now()
		op := wp.sched.Next(now, canRun)
		if op == nil {
			// Nothing runnable. Ingress operators run on their own threads
			// and wake the pool when they push, so workers just wait. If a
			// ready operator is merely held by another worker, re-check
			// shortly instead of blocking on a wake that already happened.
			if wp.anyHeldReady(now) {
				return simos.Decision{Used: wp.pickOverhead, Action: simos.ActionYield}
			}
			return simos.Decision{
				Action:     simos.ActionWait,
				WaitOn:     wp.waitQ,
				WaitUnless: wp.anyReadyFn,
			}
		}

		// Switching the worker to a different operator changes its working
		// set: charge the same cache-pollution cost a kernel context
		// switch pays. This keeps the UL-SS baselines honest — their
		// advantage is fresh metrics, not free operator hopping.
		var overhead time.Duration
		if op != lastOp {
			overhead = wp.engine.kernel.SwitchCost()
			if overhead > budget/2 {
				overhead = budget / 2
			}
			lastOp = op
		}

		oc := opContext{now: now, sim: ctx, pool: wp}
		res := op.runFor(&oc, budget-overhead)
		res.used += overhead
		wp.sched.TaskDone(op, res.used)
		// The operator is occupied for the wall duration of this slice.
		wp.busyUntil[op] = now + res.used

		if res.status == statusBlocked {
			// The defining UL-SS drawback (§6.4): a blocking operation
			// stalls the whole worker thread; the operator cannot be
			// handed to another worker meanwhile.
			wp.busyUntil[op] = res.until
			return simos.Decision{Used: res.used, Action: simos.ActionSleep, WakeAt: res.until}
		}
		used := res.used
		if used == 0 {
			// The pick turned out to have no work (e.g. backpressured):
			// charge the dispatch overhead so the loop cannot spin for
			// free.
			used = wp.pickOverhead
		}
		return simos.Decision{Used: used, Action: simos.ActionYield}
	})
}
