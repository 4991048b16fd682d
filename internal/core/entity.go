// Package core implements Lachesis itself: the scheduling middleware of the
// paper. It is deliberately decoupled from both the SPEs and the OS —
// runtime information arrives through Driver implementations (one per SPE,
// see internal/driver), metrics are computed SPE-agnostically by the
// Provider through per-metric dependency graphs (Algorithm 3 / Fig. 4),
// scheduling policies produce abstract real-valued priorities
// (Definition 3.2), and translators map those priorities onto concrete OS
// mechanisms — nice and cgroup cpu.shares — through the OSInterface
// (Definition 3.3, §5.3). The main loop (Algorithm 1) runs any number of
// policies with independent periods.
package core

import (
	"fmt"
	"time"
)

// Entity is the SPE-agnostic description of one physical operator (§3 of
// the paper: drivers convert low-level runtime data into entities so the
// rest of Lachesis works at an abstract level).
type Entity struct {
	// Name uniquely identifies the physical operator within its driver.
	Name string
	// Driver is the name of the driver that exposed the entity.
	Driver string
	// Query is the continuous query the operator belongs to.
	Query string
	// Logical lists the logical operators fused into this physical one.
	Logical []string
	// Thread is the kernel thread (tid) executing the operator; 0 when the
	// engine multiplexes operators over a worker pool.
	Thread int
	// Downstream lists the physical operators this one feeds.
	Downstream []string
	// Ingress and Egress mark the operator's role.
	Ingress bool
	Egress  bool
}

// EntityValues maps entity names to one metric's values.
type EntityValues map[string]float64

// Driver bridges one SPE process to Lachesis through the SPE's public
// monitoring APIs, without altering the SPE (goal G2).
type Driver interface {
	// Name identifies the SPE process (unique within a middleware).
	Name() string
	// Entities returns the physical operators currently deployed.
	Entities() []Entity
	// Provides reports whether the driver can fetch the metric directly.
	Provides(metric string) bool
	// Fetch returns the latest values of a directly-provided metric. The
	// provider keeps the returned map as the previous period's values and
	// the middleware as its last-good fallback, so a driver that refills
	// one map on every call suits only setups with neither derived
	// metrics nor a fetch timeout.
	Fetch(metric string, now time.Duration) (EntityValues, error)
}

// UnknownMetricError reports a metric that is neither provided by a driver
// nor derivable from its dependency graph.
type UnknownMetricError struct {
	Metric string
	Driver string
}

// Error implements error.
func (e *UnknownMetricError) Error() string {
	return fmt.Sprintf("core: metric %q unavailable from driver %q (not provided and not derivable)", e.Metric, e.Driver)
}
