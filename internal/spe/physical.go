package spe

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"lachesis/internal/simos"
)

// route delivers an operator's output stream to the replicas of one
// downstream physical operator (fan-out across routes, partitioning across
// replicas within a route).
type route struct {
	targets []*PhysicalOp
	keyBy   bool
	rr      int
}

func (r *route) pick(t Tuple) *PhysicalOp {
	if len(r.targets) == 1 {
		return r.targets[0]
	}
	if r.keyBy {
		return r.targets[int(t.Key%uint64(len(r.targets)))]
	}
	p := r.targets[r.rr]
	r.rr = (r.rr + 1) % len(r.targets)
	return p
}

// pendingEmit is an output tuple that could not be delivered yet because
// the destination queue was full (backpressure).
type pendingEmit struct {
	target *PhysicalOp
	tuple  Tuple
}

// PhysicalOp is one physical operator: a chain of one or more fused logical
// operators, replicated by fission, executing on a dedicated kernel thread
// (or a worker pool). It is the unit Lachesis schedules.
type PhysicalOp struct {
	engine     *Engine
	deployment *Deployment
	name       string
	chain      []*LogicalOp
	process    []ProcessFunc // per chain element (nil = synthetic)
	credit     []float64     // synthetic selectivity credit per element
	replica    int
	kind       OpKind

	in     *queue           // nil for ingress heads
	waitQ  *simos.WaitQueue // waited on when the input queue is empty
	spaceQ *simos.WaitQueue // waited on by upstreams when in is full
	outs   []*route

	source   Source // ingress heads only
	consumed int64  // ingress: tuples pulled from source

	rng       *rand.Rand
	working   bool
	current   Tuple
	remaining time.Duration

	pendingOut []pendingEmit
	// emitScratch reuses the per-tuple chain output buffers.
	emitScratch [][]Tuple
	// emitIn and emitNext are the input tuple and output level that emit
	// works on while a ProcessFunc runs.
	emitIn   Tuple
	emitNext []Tuple

	// Callbacks bound once by bindCallbacks: emit is passed to every
	// ProcessFunc; ready and notFull are the WaitUnless checks of a
	// thread waiting for input and of an upstream waiting for space.
	emit    EmitFunc
	ready   func(time.Duration) bool
	notFull func(time.Duration) bool

	thread simos.ThreadID
	// pooled marks operators executed by the worker pool rather than a
	// dedicated thread (UL-SS mode; ingress operators always keep their
	// own thread, as Storm spouts do under EdgeWise).
	pooled bool
	// stopped marks a torn-down operator: it never becomes ready again and
	// its dedicated thread exits at its next dispatch.
	stopped bool
	stats   opStats
}

// Name returns the physical operator's unique name (query.chain.replica).
func (p *PhysicalOp) Name() string { return p.name }

// Kind returns the operator's role.
func (p *PhysicalOp) Kind() OpKind { return p.kind }

// Replica returns the fission replica index.
func (p *PhysicalOp) Replica() int { return p.replica }

// ThreadID returns the kernel thread running this operator, or 0 in
// worker-pool mode.
func (p *PhysicalOp) ThreadID() simos.ThreadID { return p.thread }

// Deployment returns the deployment this operator belongs to.
func (p *PhysicalOp) Deployment() *Deployment { return p.deployment }

// LogicalNames returns the names of the fused logical operators.
func (p *PhysicalOp) LogicalNames() []string {
	out := make([]string, len(p.chain))
	for i, l := range p.chain {
		out[i] = l.Name
	}
	return out
}

// QueueLen returns the input queue length. For ingress operators it is the
// backlog of source tuples not yet ingested (the paper's source queue).
func (p *PhysicalOp) QueueLen(now time.Duration) int {
	if p.kind == KindIngress {
		backlog := p.source.Arrived(now) - p.consumed
		if backlog < 0 {
			backlog = 0
		}
		const maxInt = int(^uint(0) >> 1)
		if backlog > int64(maxInt) {
			return maxInt
		}
		return int(backlog)
	}
	return p.in.len()
}

// OldestWait returns how long the head input tuple has been waiting.
func (p *PhysicalOp) OldestWait(now time.Duration) time.Duration {
	if p.kind == KindIngress {
		if p.source.Arrived(now) <= p.consumed {
			return 0
		}
		d := now - p.source.ArrivalTime(p.consumed)
		if d < 0 {
			return 0
		}
		return d
	}
	head, ok := p.in.peek()
	if !ok {
		return 0
	}
	d := now - head.IngressTime
	if d < 0 {
		return 0
	}
	return d
}

// Ready reports whether the operator has work it could do right now.
func (p *PhysicalOp) Ready(now time.Duration) bool {
	if p.stopped {
		return false
	}
	if p.working || len(p.pendingOut) > 0 {
		return true
	}
	return p.QueueLen(now) > 0
}

// CostHint returns the configured average per-input-tuple CPU cost of the
// whole chain.
func (p *PhysicalOp) CostHint() time.Duration { return chainCost(p.chain) }

// SelectivityHint returns the configured selectivity of the whole chain.
func (p *PhysicalOp) SelectivityHint() float64 { return chainSelectivity(p.chain) }

// DownstreamOps returns the physical operators fed by this one. It is
// read-only topology information, available to user-level schedulers that
// are (unlike Lachesis) coupled to the engine.
func (p *PhysicalOp) DownstreamOps() []*PhysicalOp {
	var out []*PhysicalOp
	for _, r := range p.outs {
		out = append(out, r.targets...)
	}
	return out
}

// DownstreamNames returns the names of the physical operators fed by this
// one.
func (p *PhysicalOp) DownstreamNames() []string {
	var out []string
	for _, r := range p.outs {
		for _, t := range r.targets {
			out = append(out, t.name)
		}
	}
	return out
}

// Snapshot captures the operator's public metrics at virtual time now.
func (p *PhysicalOp) Snapshot(now time.Duration) OpSnapshot {
	return OpSnapshot{
		Name:            p.name,
		Query:           p.deployment.Query.Name,
		Logical:         p.LogicalNames(),
		Replica:         p.replica,
		Kind:            p.kind,
		Thread:          int(p.thread),
		QueueLen:        p.QueueLen(now),
		OldestWait:      p.OldestWait(now),
		InCount:         p.stats.inCount,
		OutCount:        p.stats.outCount,
		Ingested:        p.stats.ingested,
		EgressCount:     p.stats.egressCount,
		Busy:            p.stats.busy,
		BlockEvents:     p.stats.blockEvents,
		BlockTime:       p.stats.blockTime,
		CostHint:        p.CostHint(),
		SelectivityHint: p.SelectivityHint(),
		MeanProcLatency: p.stats.proc.mean(),
		MeanE2ELatency:  p.stats.e2e.mean(),
		Downstream:      p.DownstreamNames(),
	}
}

// chainCost returns the expected CPU cost per chain input tuple:
// c1 + s1*c2 + s1*s2*c3 + ...
func chainCost(chain []*LogicalOp) time.Duration {
	cost := 0.0
	scale := 1.0
	for _, op := range chain {
		cost += scale * float64(op.Cost)
		scale *= op.Selectivity
	}
	return time.Duration(cost)
}

// chainSelectivity returns the product of the chain's selectivities.
func chainSelectivity(chain []*LogicalOp) float64 {
	s := 1.0
	for _, op := range chain {
		if op.Kind == KindEgress {
			continue
		}
		s *= op.Selectivity
	}
	return s
}

// Deployment is one query deployed on an engine.
type Deployment struct {
	Query  *LogicalQuery
	engine *Engine
	ops    []*PhysicalOp
	// physByLogical maps each logical operator name to the physical
	// operators executing it (>=1 after fission, shared after fusion).
	physByLogical map[string][]*PhysicalOp
}

// Ops returns all physical operators of the deployment.
func (d *Deployment) Ops() []*PhysicalOp {
	out := make([]*PhysicalOp, len(d.ops))
	copy(out, d.ops)
	return out
}

// PhysicalFor returns the physical operators executing a logical operator.
func (d *Deployment) PhysicalFor(logicalName string) []*PhysicalOp {
	out := make([]*PhysicalOp, len(d.physByLogical[logicalName]))
	copy(out, d.physByLogical[logicalName])
	return out
}

// Ingresses returns the ingress physical operators.
func (d *Deployment) Ingresses() []*PhysicalOp {
	var out []*PhysicalOp
	for _, p := range d.ops {
		if p.kind == KindIngress {
			out = append(out, p)
		}
	}
	return out
}

// Egresses returns the physical operators whose chain ends at an egress.
func (d *Deployment) Egresses() []*PhysicalOp {
	var out []*PhysicalOp
	for _, p := range d.ops {
		if p.chain[len(p.chain)-1].Kind == KindEgress {
			out = append(out, p)
		}
	}
	return out
}

// Ingested returns the total tuples ingested across all ingress operators.
func (d *Deployment) Ingested() int64 {
	var sum int64
	for _, p := range d.ops {
		sum += p.stats.ingested
	}
	return sum
}

// EgressCount returns the total tuples delivered across all egresses.
func (d *Deployment) EgressCount() int64 {
	var sum int64
	for _, p := range d.ops {
		sum += p.stats.egressCount
	}
	return sum
}

// LatencySnapshot aggregates the egress latency recorders.
type LatencySnapshot struct {
	Count       int64
	MeanProc    time.Duration
	MeanE2E     time.Duration
	ProcSamples []float64 // seconds
	E2ESamples  []float64 // seconds
}

// Latencies returns the deployment's aggregated egress latency statistics
// since the last ResetStats.
func (d *Deployment) Latencies() LatencySnapshot {
	var out LatencySnapshot
	var sumProc, sumE2E time.Duration
	for _, p := range d.Egresses() {
		out.Count += p.stats.proc.count
		sumProc += p.stats.proc.sum
		sumE2E += p.stats.e2e.sum
		out.ProcSamples = append(out.ProcSamples, p.stats.proc.samples()...)
		out.E2ESamples = append(out.E2ESamples, p.stats.e2e.samples()...)
	}
	if out.Count > 0 {
		out.MeanProc = sumProc / time.Duration(out.Count)
		out.MeanE2E = sumE2E / time.Duration(out.Count)
	}
	return out
}

// ResetStats clears the latency recorders (called at the end of warmup).
// Monotonic counters are unaffected.
func (d *Deployment) ResetStats() {
	for _, p := range d.ops {
		p.stats.proc.reset()
		p.stats.e2e.reset()
	}
}

// buildPhysical converts the logical DAG into physical operators, applying
// Flink-style chaining (fusion) when enabled and fission per Parallelism.
func (e *Engine) buildPhysical(d *Deployment, src Source) error {
	q := d.Query
	chains, err := buildChains(q, e.cfg.Chaining)
	if err != nil {
		return err
	}

	// Create physical replicas for every chain.
	headToPhys := make(map[string][]*PhysicalOp) // chain head logical name -> replicas
	for _, chain := range chains {
		par := chain[0].Parallelism
		name := chainName(q.Name, chain)
		for rep := 0; rep < par; rep++ {
			p := &PhysicalOp{
				engine:     e,
				deployment: d,
				name:       name + "." + strconv.Itoa(rep),
				chain:      chain,
				credit:     make([]float64, len(chain)),
				replica:    rep,
				rng:        rand.New(rand.NewSource(e.cfg.Seed + int64(len(d.ops))*7919 + int64(rep))),
			}
			for _, l := range chain {
				proc := l.Process
				if l.NewProcess != nil {
					proc = l.NewProcess(rep)
				}
				p.process = append(p.process, proc)
			}
			switch {
			case chain[0].Kind == KindIngress:
				p.kind = KindIngress
				p.source = src
			default:
				p.kind = chain[len(chain)-1].Kind
				p.in = newQueue(p.name+".in", e.queueCapacity())
			}
			p.waitQ = e.kernel.NewWaitQueue(p.name + ".data")
			p.spaceQ = e.kernel.NewWaitQueue(p.name + ".space")
			p.bindCallbacks()
			d.ops = append(d.ops, p)
			headToPhys[chain[0].Name] = append(headToPhys[chain[0].Name], p)
			for _, l := range chain {
				d.physByLogical[l.Name] = append(d.physByLogical[l.Name], p)
			}
		}
	}

	// Wire routes: the last logical op of each chain feeds the chains
	// headed by its downstream logical operators.
	for _, chain := range chains {
		last := chain[len(chain)-1]
		for _, dsName := range q.Downstream(last.Name) {
			targets, ok := headToPhys[dsName]
			if !ok {
				// dsName was fused into this chain; skip internal edges.
				continue
			}
			r := &route{targets: targets, keyBy: q.Op(dsName).KeyBy}
			for _, p := range headToPhys[chain[0].Name] {
				p.outs = append(p.outs, r)
			}
		}
	}

	seed := e.cfg.Seed
	for i, p := range d.ops {
		p.stats.proc = newLatencyRec(seed + int64(i)*31 + 1)
		p.stats.e2e = newLatencyRec(seed + int64(i)*31 + 2)
	}
	return nil
}

// buildChains groups logical operators into fusion chains. Without chaining
// every operator is its own chain. With chaining, maximal linear segments
// with matching parallelism and no key-by boundary are fused, as Flink
// does.
func buildChains(q *LogicalQuery, chaining bool) ([][]*LogicalOp, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ops := q.Ops()
	if !chaining {
		out := make([][]*LogicalOp, len(ops))
		for i, op := range ops {
			out[i] = []*LogicalOp{op}
		}
		return out, nil
	}
	inChain := make(map[string]bool, len(ops))
	var out [][]*LogicalOp
	for _, op := range ops {
		if inChain[op.Name] {
			continue
		}
		// Only start a chain at an operator that cannot be fused into a
		// predecessor.
		if up := q.Upstream(op.Name); len(up) == 1 && canFuse(q, q.Op(up[0]), op) && !inChain[up[0]] {
			// The chain will start upstream; defer until we reach its head.
			// (ops are in insertion order, not necessarily topological, so
			// walk to the head explicitly.)
			head := op
			for {
				up := q.Upstream(head.Name)
				if len(up) != 1 || !canFuse(q, q.Op(up[0]), head) {
					break
				}
				head = q.Op(up[0])
			}
			if inChain[head.Name] {
				continue
			}
			op = head
		}
		chain := []*LogicalOp{op}
		inChain[op.Name] = true
		cur := op
		for {
			ds := q.Downstream(cur.Name)
			if len(ds) != 1 {
				break
			}
			next := q.Op(ds[0])
			if inChain[next.Name] || !canFuse(q, cur, next) {
				break
			}
			chain = append(chain, next)
			inChain[next.Name] = true
			cur = next
		}
		out = append(out, chain)
	}
	return out, nil
}

// canFuse reports whether downstream can be fused onto upstream.
func canFuse(q *LogicalQuery, up, down *LogicalOp) bool {
	return len(q.Downstream(up.Name)) == 1 &&
		len(q.Upstream(down.Name)) == 1 &&
		up.Parallelism == down.Parallelism &&
		!down.KeyBy
}

func chainName(query string, chain []*LogicalOp) string {
	if len(chain) == 1 {
		return query + "." + chain[0].Name
	}
	return fmt.Sprintf("%s.%s-%s", query, chain[0].Name, chain[len(chain)-1].Name)
}
