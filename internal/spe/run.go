package spe

import (
	"time"

	"lachesis/internal/simos"
)

// runStatus reports why runFor stopped.
type runStatus int

const (
	// statusWorked: the CPU budget was exhausted with work remaining.
	statusWorked runStatus = iota + 1
	// statusIdle: no input available.
	statusIdle
	// statusBackpressured: a downstream queue is full.
	statusBackpressured
	// statusBlocked: a simulated blocking operation (I/O) started.
	statusBlocked
)

type runResult struct {
	used   time.Duration
	status runStatus
	// target is the downstream operator whose full queue stopped us
	// (statusBackpressured).
	target *PhysicalOp
	// until is when the blocking operation completes (statusBlocked).
	until time.Duration
	// nextArrival is when the next source tuple arrives (statusIdle on an
	// ingress operator).
	nextArrival time.Duration
}

// opContext abstracts the execution environment (dedicated thread vs
// worker pool) from the operator logic. It lives for one Run call, on the
// runner's stack.
type opContext struct {
	now time.Duration
	sim *simos.RunContext
	// pool is the worker pool running the operator, or nil when it runs
	// on a dedicated thread.
	pool *workerPool
}

// wakeData signals that data became available for t.
func (c *opContext) wakeData(t *PhysicalOp) {
	switch {
	case c.pool != nil:
		// In pool mode, readiness transitions wake idle workers.
		c.sim.Wake(c.pool.waitQ)
	case t.pooled:
		// Pool-managed consumers are dispatched by workers.
		c.sim.Wake(t.engine.pool.waitQ)
	default:
		c.sim.Wake(t.waitQ)
	}
}

// wakeSpace signals that space became available in t's input queue.
func (c *opContext) wakeSpace(t *PhysicalOp) {
	if c.pool != nil {
		// Space frees both pooled consumers and threaded upstreams (e.g.
		// an ingress blocked on a full bolt queue).
		c.sim.Wake(c.pool.waitQ)
	}
	c.sim.Wake(t.spaceQ)
}

// runFor advances the operator by up to budget CPU time. It is the single
// execution core shared by OS-thread mode and worker-pool (UL-SS) mode.
func (p *PhysicalOp) runFor(ctx *opContext, budget time.Duration) runResult {
	var used time.Duration
	for {
		// Deliver any output held back by backpressure.
		for len(p.pendingOut) > 0 {
			pe := p.pendingOut[0]
			if pe.target.in.full() {
				return runResult{used: used, status: statusBackpressured, target: pe.target}
			}
			wasEmpty := pe.target.in.len() == 0
			pe.target.in.push(pe.tuple)
			p.stats.outCount++
			copy(p.pendingOut, p.pendingOut[1:])
			p.pendingOut = p.pendingOut[:len(p.pendingOut)-1]
			if wasEmpty {
				ctx.wakeData(pe.target)
			}
		}

		// Acquire the next input tuple.
		if !p.working {
			if p.kind == KindIngress {
				if p.consumed >= p.source.Arrived(ctx.now) {
					return runResult{
						used:        used,
						status:      statusIdle,
						nextArrival: p.source.ArrivalTime(p.consumed),
					}
				}
				t := p.source.Make(p.consumed)
				t.EventTime = p.source.ArrivalTime(p.consumed)
				t.IngressTime = ctx.now + used
				p.consumed++
				p.stats.ingested++
				p.current = t
			} else {
				wasFull := p.in.full()
				t, ok := p.in.pop()
				if !ok {
					return runResult{used: used, status: statusIdle}
				}
				if wasFull {
					ctx.wakeSpace(p)
				}
				p.current = t
			}
			p.working = true
			p.remaining = p.sampleCost()
			p.stats.inCount++
		}

		// Spend CPU on the current tuple.
		if used >= budget {
			return runResult{used: used, status: statusWorked}
		}
		step := budget - used
		if p.remaining < step {
			step = p.remaining
		}
		used += step
		p.remaining -= step
		p.stats.busy += step
		if p.remaining > 0 {
			return runResult{used: used, status: statusWorked}
		}

		// Tuple complete: run the chain logic and queue emissions.
		p.working = false
		blockFor := p.finishTuple(ctx.now + used)
		if blockFor > 0 {
			p.stats.blockEvents++
			p.stats.blockTime += blockFor
			return runResult{used: used, status: statusBlocked, until: ctx.now + used + blockFor}
		}
	}
}

// sampleCost returns the CPU cost of the current tuple, applying the chain
// head's jitter if configured.
func (p *PhysicalOp) sampleCost() time.Duration {
	c := chainCost(p.chain)
	if j := p.chain[0].CostJitter; j > 0 {
		c = time.Duration(float64(c) * (1 + j*(2*p.rng.Float64()-1)))
	}
	if c < 0 {
		c = 0
	}
	return c
}

// finishTuple runs the (possibly fused) chain over the completed input
// tuple, records egress latencies, stages emissions, and samples blocking
// operations. completeAt is the virtual time the tuple finished processing.
func (p *PhysicalOp) finishTuple(completeAt time.Duration) (blockFor time.Duration) {
	// Grow the per-level scratch buffers on first use.
	for len(p.emitScratch) < len(p.chain)+1 {
		p.emitScratch = append(p.emitScratch, nil)
	}
	cur := append(p.emitScratch[0][:0], p.current)
	p.emitScratch[0] = cur
	p.current = Tuple{}

	for i, l := range p.chain {
		if l.Kind == KindEgress {
			for _, t := range cur {
				p.stats.egressCount++
				p.stats.proc.record(completeAt - t.IngressTime)
				p.stats.e2e.record(completeAt - t.EventTime)
			}
			cur = cur[:0]
			break
		}
		next := p.emitScratch[i+1][:0]
		if fn := p.process[i]; fn != nil {
			p.emitNext = next
			for _, t := range cur {
				p.emitIn = t
				fn(t, p.emit)
			}
			next = p.emitNext
			p.emitIn = Tuple{} // release the payload
		} else {
			for _, t := range cur {
				p.credit[i] += l.Selectivity
				for p.credit[i] >= 1 {
					p.credit[i]--
					next = append(next, t)
				}
			}
		}
		p.emitScratch[i+1] = next
		cur = next
		if len(cur) == 0 {
			break
		}
	}

	// Stage the final outputs for delivery (one per downstream route).
	for _, t := range cur {
		for _, r := range p.outs {
			p.pendingOut = append(p.pendingOut, pendingEmit{target: r.pick(t), tuple: t})
		}
	}

	// Sample blocking operations (§6.4: simulated I/O after a tuple).
	for _, l := range p.chain {
		if l.BlockProb > 0 && l.BlockMax > 0 && p.rng.Float64() < l.BlockProb {
			blockFor += time.Duration(p.rng.Float64() * float64(l.BlockMax))
		}
	}
	return blockFor
}

// emitOne is the EmitFunc handed to ProcessFuncs (as p.emit, bound once):
// it stamps an output with the times of the input being processed
// (p.emitIn) and appends it to the chain level being built (p.emitNext).
func (p *PhysicalOp) emitOne(o Tuple) {
	if o.EventTime == 0 {
		o.EventTime = p.emitIn.EventTime
	}
	if o.IngressTime == 0 {
		o.IngressTime = p.emitIn.IngressTime
	}
	p.emitNext = append(p.emitNext, o)
}

// bindCallbacks builds, once per operator, the method values the run loop
// hands out, so no tuple or timeslice allocates a closure.
func (p *PhysicalOp) bindCallbacks() {
	p.emit = p.emitOne
	p.ready = p.Ready
	p.notFull = func(time.Duration) bool { return !p.in.full() }
}

// osRunner wraps the operator as a dedicated kernel thread: the default
// thread-per-operator execution of Storm, Flink, and Liebre.
func (p *PhysicalOp) osRunner() simos.Runner {
	return simos.RunnerFunc(func(ctx *simos.RunContext, granted time.Duration) simos.Decision {
		if p.stopped {
			return simos.Decision{Action: simos.ActionExit}
		}
		oc := opContext{now: ctx.Now(), sim: ctx}
		res := p.runFor(&oc, granted)
		switch res.status {
		case statusIdle:
			if p.kind == KindIngress {
				if res.nextArrival > ctx.Now()+res.used {
					return simos.Decision{Used: res.used, Action: simos.ActionSleep, WakeAt: res.nextArrival}
				}
				if res.used == 0 {
					// The next arrival is due within this instant; burn a
					// minimal poll cost rather than spin for free.
					res.used = time.Microsecond
				}
				return simos.Decision{Used: res.used, Action: simos.ActionYield}
			}
			return simos.Decision{
				Used:       res.used,
				Action:     simos.ActionWait,
				WaitOn:     p.waitQ,
				WaitUnless: p.ready,
			}
		case statusBackpressured:
			return simos.Decision{
				Used:       res.used,
				Action:     simos.ActionWait,
				WaitOn:     res.target.spaceQ,
				WaitUnless: res.target.notFull,
			}
		case statusBlocked:
			return simos.Decision{Used: res.used, Action: simos.ActionSleep, WakeAt: res.until}
		default: // statusWorked
			return simos.Decision{Used: res.used, Action: simos.ActionYield}
		}
	})
}
