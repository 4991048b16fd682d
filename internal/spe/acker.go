package spe

import (
	"time"
)

// Storm tracks tuple lineage through dedicated acker threads: every tuple
// movement in a query sends an ack message processed by the query's acker.
// The paper's footnote 3 notes that such helper threads are scheduled by
// Lachesis exactly like physical operators; enabling Config.AckerThreads
// reproduces that: each Storm-flavor deployment gets one acker thread that
// appears as a regular entity to drivers and translators.

const (
	// ackerOpName is the logical name of the helper operator.
	ackerOpName = "__acker"
	// ackCost is the CPU cost of processing one ack message.
	ackCost = 5 * time.Microsecond
	// ackPollInterval bounds how long an idle acker sleeps before
	// rechecking for new acks.
	ackPollInterval = time.Millisecond
)

// ackerSource derives the acker's input from the deployment's tuple
// movements: one ack per tuple ingested or emitted anywhere in the query.
// It adapts the Source interface so the acker reuses the ingress-operator
// machinery (virtual backlog, sleep when idle).
type ackerSource struct {
	dep *Deployment
	// ops snapshots the operator set at deployment (excluding the acker
	// itself).
	ops []*PhysicalOp
	now func() time.Duration
}

var _ Source = (*ackerSource)(nil)

// Arrived implements Source: total acks produced so far.
func (s *ackerSource) Arrived(time.Duration) int64 {
	var n int64
	for _, p := range s.ops {
		n += p.stats.ingested + p.stats.outCount
	}
	return n
}

// ArrivalTime implements Source. Ack arrivals are data-driven, not
// time-driven, so an idle acker polls at ackPollInterval.
func (s *ackerSource) ArrivalTime(int64) time.Duration {
	return s.now() + ackPollInterval
}

// Make implements Source.
func (s *ackerSource) Make(int64) Tuple { return Tuple{} }

// attachAcker adds the helper thread to a freshly built deployment.
func (e *Engine) attachAcker(d *Deployment) error {
	logical := &LogicalOp{
		Name:        ackerOpName,
		Kind:        KindIngress, // pulls from the derived ack source
		Cost:        ackCost,
		Selectivity: 0,
		Parallelism: 1,
	}
	p := &PhysicalOp{
		engine:     e,
		deployment: d,
		name:       d.Query.Name + "." + ackerOpName + ".0",
		chain:      []*LogicalOp{logical},
		process:    []ProcessFunc{nil},
		credit:     []float64{0},
		kind:       KindIngress,
		source:     &ackerSource{dep: d, ops: d.Ops(), now: e.kernel.Now},
		rng:        nil, // no randomness needed
		waitQ:      e.kernel.NewWaitQueue(d.Query.Name + ".acker.data"),
		spaceQ:     e.kernel.NewWaitQueue(d.Query.Name + ".acker.space"),
	}
	p.stats.proc = newLatencyRec(1)
	p.stats.e2e = newLatencyRec(2)
	p.bindCallbacks()
	tid, err := e.kernel.Spawn(p.name, e.cgroup, p.osRunner())
	if err != nil {
		return err
	}
	p.thread = tid
	d.ops = append(d.ops, p)
	d.physByLogical[ackerOpName] = append(d.physByLogical[ackerOpName], p)
	return nil
}
