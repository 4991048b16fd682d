package core

import (
	"sync"
	"time"
)

// This file holds the decision cycle's allocation machinery: the
// persistent phase worker pools and the per-middleware / per-binding
// scratch buffers that make a steady-state Step allocation-free.
//
// The rule all of it follows: anything the cycle needs every period is
// allocated once (at Bind time or on the first Step that needs it) and
// reused — cleared, never freed. Go's map clear() retains buckets, so a
// map whose key set is stable re-inserts without touching the allocator;
// slices are truncated to length zero and re-appended within capacity.
// The ARCHITECTURE.md "Hot path" section carries the full allocation
// budget table; TestSteadyCycleZeroAllocs and BenchmarkSteadyCycle
// enforce the zero-allocation claim.

// indexPool is a persistent worker pool running fn(i) for i in [0, n).
// Unlike the spawn-per-cycle pattern it replaces, the pool's goroutines
// and job channel are allocated once and live until Close, so a cycle's
// fetch and apply phases cost channel handoffs, not goroutine creation.
//
// A pool runs one batch at a time (run returns only when every index has
// been processed); the middleware calls it from the single stepping
// goroutine, so no extra serialization is needed. fn is stored on the
// pool before the first job is sent and read by workers only between a
// job receive and its wg.Done, which orders every access.
type indexPool struct {
	jobs    chan int
	wg      sync.WaitGroup
	fn      func(int)
	n       int
	chunk   int
	workers int
	closed  bool
}

func newIndexPool() *indexPool {
	return &indexPool{jobs: make(chan int)}
}

// ensure grows the resident worker set to at least w goroutines.
func (p *indexPool) ensure(w int) {
	for p.workers < w {
		p.workers++
		go func() {
			for start := range p.jobs {
				end := start + p.chunk
				if end > p.n {
					end = p.n
				}
				for i := start; i < end; i++ {
					p.fn(i)
				}
				p.wg.Done()
			}
		}()
	}
}

// run executes fn(0..n-1) on up to workers goroutines, dispatching
// chunk indices per job (chunk <= 1 means one index per job). It
// returns when all n calls have completed. workers <= 1 (or n <= 1)
// runs inline with no handoffs at all.
func (p *indexPool) run(workers, n, chunk int, fn func(int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers > (n+chunk-1)/chunk {
		workers = (n + chunk - 1) / chunk
	}
	if workers <= 1 || p.closed {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.ensure(workers)
	p.fn = fn
	p.n = n
	p.chunk = chunk
	for start := 0; start < n; start += chunk {
		p.wg.Add(1)
		p.jobs <- start
	}
	p.wg.Wait()
	p.fn = nil
}

// close releases the pool's goroutines. A closed pool degrades to inline
// execution, so late runs stay correct.
func (p *indexPool) close() {
	if p != nil && !p.closed {
		p.closed = true
		close(p.jobs)
	}
}

// stepScratch is the per-middleware cycle scratch: every slice and map a
// Step needs, allocated on first use and reused for the middleware's
// lifetime. All fields are owned by the stepping goroutine except the
// ones the phase workers index into (results, outcomes), which are
// pre-sized before the workers start.
type stepScratch struct {
	due      []*boundPolicy
	runnable []*boundPolicy
	toRun    []*boundPolicy

	// fetch phase
	drivers    []Driver
	driverSeen map[string]bool
	results    []fetchOut
	values     Values
	unavail    map[string]error

	// apply phase
	outcomes []bindingOutcome
	blocked  []error

	// per-cycle state the pooled phase jobs read (set before dispatch,
	// stable while workers run)
	now           time.Duration
	applyParallel bool

	// reused StepStats backing arrays (see StepStats doc: entries are
	// valid until the next Step on the same Middleware)
	bindingStats []BindingStepStats
	driverStats  []DriverStepStats
}

// Close releases the middleware's persistent phase worker goroutines.
// Stepping after Close stays correct (phases fall back to inline
// execution); Close is for callers that create many short-lived
// middlewares and do not want parked pool goroutines outliving them.
// It is safe to call multiple times, and safe to never call — the pool
// is a handful of parked goroutines, not a growing resource.
func (m *Middleware) Close() {
	m.pool.close()
}

// phasePool returns the middleware's persistent worker pool, creating it
// on first use.
func (m *Middleware) phasePool() *indexPool {
	if m.pool == nil {
		m.pool = newIndexPool()
	}
	return m.pool
}

// fetchJobFn/applyJobFn are the pool job functions, bound once so
// dispatching a phase does not allocate a closure per cycle.
func (m *Middleware) bindPhaseJobs() {
	if m.fetchFn == nil {
		m.fetchFn = m.fetchJob
		m.applyFn = m.applyJob
	}
}

// resetViewScratch prepares a binding's reusable view maps for one
// cycle: entity and per-metric maps are cleared in place so a stable
// entity set re-inserts without allocating.
func (bp *boundPolicy) resetViewScratch() {
	if bp.viewEntities == nil {
		bp.viewEntities = make(map[string]Entity)
		bp.viewMerged = make(map[string]EntityValues)
	}
	clear(bp.viewEntities)
	for _, mv := range bp.viewMerged {
		clear(mv)
	}
}

// InPlaceScheduler is the optional Policy capability the allocation-free
// hot path uses: ScheduleInto writes the schedule into out, reusing
// out's Single and Groups maps (cleared by the caller between cycles)
// instead of allocating fresh ones per cycle. Policies without it run
// through Schedule unchanged. The built-in QS and FCFS policies and the
// GroupPerQuery decorator implement it.
type InPlaceScheduler interface {
	ScheduleInto(view *View, out *Schedule) error
	// InPlaceTarget returns the policy whose Schedule method ScheduleInto
	// mirrors — implementations return themselves. The middleware takes
	// the in-place path only when the bound policy IS the target: a
	// wrapper embedding an in-place policy promotes these methods, and
	// silently bypassing the wrapper's own Schedule override would change
	// behavior.
	InPlaceTarget() Policy
}

// InPlaceOf returns p's in-place path: p itself when it implements
// InPlaceScheduler and is its own InPlaceTarget, nil otherwise.
func InPlaceOf(p Policy) InPlaceScheduler {
	if ip, ok := p.(InPlaceScheduler); ok && sameInstance(ip.InPlaceTarget(), p) {
		return ip
	}
	return nil
}

// DropEmptyGroups deletes the group buckets of out that gathered no ops
// this cycle. Between cycles the middleware truncates buckets instead of
// deleting them, so an in-place policy whose groups changed must drop the
// stale ones, or translators would ensure empty cgroups.
func DropEmptyGroups(out *Schedule) {
	for gid, grp := range out.Groups {
		if len(grp.Ops) == 0 {
			delete(out.Groups, gid)
		}
	}
}

// resetSched clears a binding's reusable schedule buffers for the next
// in-place policy run, retaining map buckets and group op slices.
func (bp *boundPolicy) resetSched() {
	if bp.sched.Single == nil {
		bp.sched.Single = make(map[string]float64)
	}
	clear(bp.sched.Single)
	for gid, g := range bp.sched.Groups {
		g.Ops = g.Ops[:0]
		g.Priority = 0
		bp.sched.Groups[gid] = g
	}
	bp.sched.Scale = 0
}

// lockSetFor returns this binding's precomputed driver lock set for the
// given gate, rebuilding it only when the gate instance changed. The
// per-cycle cost is one pointer compare instead of sorting and
// deduplicating driver names on every apply.
func (bp *boundPolicy) lockSetFor(g *DriverGate) *DriverLockSet {
	if bp.lockGate != g {
		bp.lockSet = g.LockSetFor(bp.names)
		bp.lockGate = g
	}
	return bp.lockSet
}

// Interner deduplicates strings the hot path constructs repeatedly —
// derived cgroup ids, composed entity keys — so steady-state cycles
// reuse one canonical instance per key instead of re-allocating it
// every period. The two-level Join map makes the lookup itself
// allocation-free: a concatenation key never has to be built to be
// found. An Interner is not safe for concurrent use; owners are
// per-binding or serialized by the binding's execMu.
type Interner struct {
	joined map[string]map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{joined: make(map[string]map[string]string)}
}

// Join returns the interned concatenation a+b, allocating it only the
// first time the pair is seen.
func (in *Interner) Join(a, b string) string {
	m := in.joined[a]
	if m == nil {
		m = make(map[string]string)
		in.joined[a] = m
	}
	s, ok := m[b]
	if !ok {
		s = a + b
		m[b] = s
	}
	return s
}
