package core

import (
	"maps"
	"sync"
	"time"
)

// LogicalSchedule maps logical operator names to priorities. High-level
// policies produce logical schedules so users can express preferences
// independently of how the SPE converts the logical DAG to a physical one
// (§5.1).
type LogicalSchedule map[string]float64

// LogicalPolicy is a high-level policy defined over logical operators.
type LogicalPolicy interface {
	Name() string
	Metrics() []string
	// ScheduleLogical writes logical-operator priorities into out, which
	// is empty on entry, and returns their scale.
	ScheduleLogical(view *View, out LogicalSchedule) (Scale, error)
}

// TransformationRule converts a logical schedule into physical-operator
// priorities, written into out, given the entity descriptions (which
// record fusion and fission applied by the SPE).
type TransformationRule func(input LogicalSchedule, entities map[string]Entity, out map[string]float64)

// MaxPriorityRule is the paper's example rule (Algorithm 2): a fused
// physical operator gets the highest priority among its logical operators;
// fission replicas inherit their logical operator's priority.
func MaxPriorityRule(input LogicalSchedule, entities map[string]Entity, out map[string]float64) {
	for name, ent := range entities {
		first := true
		var best float64
		for _, l := range ent.Logical {
			p, ok := input[l]
			if !ok {
				continue
			}
			if first || p > best {
				best = p
				first = false
			}
		}
		if !first {
			out[name] = best
		}
	}
}

// transformedPolicy adapts a LogicalPolicy + TransformationRule into a
// physical Policy.
type transformedPolicy struct {
	lp   LogicalPolicy
	rule TransformationRule

	// mu guards logical, the in-place path's reused logical schedule:
	// one instance may back several canary slots whose bindings run
	// concurrently.
	mu      sync.Mutex
	logical LogicalSchedule
}

var _ InPlaceScheduler = (*transformedPolicy)(nil)

// Transformed combines a high-level (logical) policy with a reusable
// transformation rule, yielding a policy over physical operators (§5.1's
// decoupled policy definition).
func Transformed(lp LogicalPolicy, rule TransformationRule) Policy {
	if rule == nil {
		rule = MaxPriorityRule
	}
	return &transformedPolicy{lp: lp, rule: rule}
}

// Name implements Policy.
func (t *transformedPolicy) Name() string { return t.lp.Name() + "+transform" }

// Metrics implements Policy.
func (t *transformedPolicy) Metrics() []string { return t.lp.Metrics() }

// Schedule implements Policy: ScheduleInto over fresh maps.
func (t *transformedPolicy) Schedule(view *View) (Schedule, error) {
	out := Schedule{Single: make(map[string]float64, len(view.Entities))}
	if err := t.schedule(view, make(LogicalSchedule), &out); err != nil {
		return Schedule{}, err
	}
	return out, nil
}

// ScheduleInto implements InPlaceScheduler, reusing one logical schedule
// across cycles.
func (t *transformedPolicy) ScheduleInto(view *View, out *Schedule) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logical == nil {
		t.logical = make(LogicalSchedule)
	}
	clear(t.logical)
	return t.schedule(view, t.logical, out)
}

// InPlaceTarget implements InPlaceScheduler.
func (t *transformedPolicy) InPlaceTarget() Policy { return t }

func (t *transformedPolicy) schedule(view *View, logical LogicalSchedule, out *Schedule) error {
	scale, err := t.lp.ScheduleLogical(view, logical)
	if err != nil {
		return err
	}
	t.rule(logical, view.Entities, out.Single)
	out.Scale = scale
	return nil
}

// StaticLogicalPolicy assigns fixed priorities to logical operators — e.g.
// "branch 1 of the Linear Road query outranks branch 2" from the paper's
// Fig. 2 example. Operators absent from the map get the default priority.
type StaticLogicalPolicy struct {
	// PolicyName labels the policy.
	PolicyName string
	// Priorities are the fixed logical priorities.
	Priorities LogicalSchedule
	// Default is used for logical operators not listed (default 0).
	Default float64
}

var _ LogicalPolicy = (*StaticLogicalPolicy)(nil)

// Name implements LogicalPolicy.
func (p *StaticLogicalPolicy) Name() string {
	if p.PolicyName != "" {
		return p.PolicyName
	}
	return "static"
}

// Metrics implements LogicalPolicy.
func (p *StaticLogicalPolicy) Metrics() []string { return nil }

// ScheduleLogical implements LogicalPolicy.
func (p *StaticLogicalPolicy) ScheduleLogical(view *View, out LogicalSchedule) (Scale, error) {
	for _, ent := range view.Entities {
		for _, l := range ent.Logical {
			if _, ok := out[l]; ok {
				continue
			}
			if prio, ok := p.Priorities[l]; ok {
				out[l] = prio
			} else {
				out[l] = p.Default
			}
		}
	}
	return ScaleLinear, nil
}

// GroupPerQuery decorates a policy so its schedule also carries a grouping
// schedule with one equal-priority group per query. Combined with the
// nice+cpu.shares translator this is the paper's multi-SPE configuration
// (§6.6): every query gets an equal CPU share, and the inner policy
// prioritizes operators within each query.
func GroupPerQuery(inner Policy) Policy { return &groupPerQuery{inner: inner} }

type groupPerQuery struct {
	inner Policy
	// intern deduplicates derived "query-<name>" group ids so the in-place
	// path does not rebuild the concatenation every cycle. Lazily created;
	// mu guards it, since one instance may back several canary slots whose
	// bindings run concurrently.
	mu     sync.Mutex
	intern *Interner
}

var _ Policy = (*groupPerQuery)(nil)

// Name implements Policy.
func (g *groupPerQuery) Name() string { return g.inner.Name() + "+query-groups" }

// Metrics implements Policy.
func (g *groupPerQuery) Metrics() []string { return g.inner.Metrics() }

// Schedule implements Policy.
func (g *groupPerQuery) Schedule(view *View) (Schedule, error) {
	sched, err := g.inner.Schedule(view)
	if err != nil {
		return Schedule{}, err
	}
	groups := make(map[string]Group)
	for name, ent := range view.Entities {
		gid := "query-" + ent.Query
		grp := groups[gid]
		grp.Priority = 1 // equal share per query
		grp.Ops = append(grp.Ops, name)
		groups[gid] = grp
	}
	sched.Groups = groups
	return sched, nil
}

// ScheduleInto implements InPlaceScheduler: the inner schedule and the
// per-query groups are written into the caller's reusable buffers (group
// ids interned, op slices re-appended within capacity). Falls back to the
// inner policy's allocating Schedule when it has no in-place path.
func (g *groupPerQuery) ScheduleInto(view *View, out *Schedule) error {
	if ip := InPlaceOf(g.inner); ip != nil {
		if err := ip.ScheduleInto(view, out); err != nil {
			return err
		}
	} else {
		sched, err := g.inner.Schedule(view)
		if err != nil {
			return err
		}
		out.Scale = sched.Scale
		maps.Copy(out.Single, sched.Single)
	}
	if out.Groups == nil {
		out.Groups = make(map[string]Group)
	}
	g.mu.Lock()
	if g.intern == nil {
		g.intern = NewInterner()
	}
	for name, ent := range view.Entities {
		gid := g.intern.Join("query-", ent.Query)
		grp := out.Groups[gid]
		grp.Priority = 1 // equal share per query
		grp.Ops = append(grp.Ops, name)
		out.Groups[gid] = grp
	}
	g.mu.Unlock()
	DropEmptyGroups(out)
	return nil
}

// InPlaceTarget implements InPlaceScheduler.
func (g *groupPerQuery) InPlaceTarget() Policy { return g }

// Ticker is a small helper tracking a policy's next due time (Algorithm 1
// uses per-policy periods; the middleware sleeps until the earliest one).
type Ticker struct {
	period time.Duration
	next   time.Duration
}

// NewTicker returns a ticker that first fires immediately.
func NewTicker(period time.Duration) *Ticker {
	if period <= 0 {
		period = time.Second
	}
	return &Ticker{period: period}
}

// Due reports whether the ticker fires at time now.
func (t *Ticker) Due(now time.Duration) bool { return now >= t.next }

// Advance moves the next fire time past now.
func (t *Ticker) Advance(now time.Duration) { t.next = now + t.period }

// Next returns the next fire time.
func (t *Ticker) Next() time.Duration { return t.next }

// Period returns the ticker's period.
func (t *Ticker) Period() time.Duration { return t.period }
