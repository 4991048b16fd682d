package simos

import (
	"fmt"
	"time"
)

// Config configures a simulated node.
type Config struct {
	// CPUs is the number of processors (default 1).
	CPUs int
	// Quantum is the timeslice granted per dispatch (default 1ms). Smaller
	// quanta increase fidelity and simulation cost.
	Quantum time.Duration
	// SchedLatency is the target scheduling latency used for sleeper
	// fairness (default 6ms, as CFS).
	SchedLatency time.Duration
	// SwitchCost is the CPU overhead charged when a CPU dispatches a
	// different thread than it ran last (direct context-switch cost plus
	// cache pollution). It is the mechanism that makes excessive thread
	// rotation expensive, as on real hardware; 0 disables it. Values are
	// clamped below Quantum/2.
	SwitchCost time.Duration
	// Capacities optionally scales per-CPU speed (1.0 = nominal). Missing
	// entries default to 1.0.
	Capacities []float64
}

func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = time.Millisecond
	}
	if c.SchedLatency <= 0 {
		c.SchedLatency = 6 * time.Millisecond
	}
	if c.SwitchCost > c.Quantum/2 {
		c.SwitchCost = c.Quantum / 2
	}
	if c.SwitchCost < 0 {
		c.SwitchCost = 0
	}
	return c
}

// threadState is the lifecycle state of a simulated thread.
type threadState int

const (
	stateRunnable threadState = iota + 1
	stateRunning
	stateSleeping
	stateWaiting
	stateExited
)

// thread is a simulated kernel thread.
type thread struct {
	id     ThreadID
	name   string
	runner Runner

	nice     int
	weight   float64
	rtPrio   int // 0 = fair class; 1-99 = real-time priority
	vruntime time.Duration
	group    *cgroup
	state    threadState

	cpuTime    time.Duration // total virtual CPU consumed
	wakeups    int64
	dispatches int64
}

// cgroup is a node of the cgroup hierarchy; it is also a scheduling entity.
type cgroup struct {
	id     CgroupID
	name   string
	shares int
	weight float64

	parent   *cgroup
	children []*cgroup
	threads  []*thread

	vruntime   time.Duration
	minVR      time.Duration
	nrRunnable int // runnable or running descendant threads
	nrPickable int // runnable (not currently running) descendant threads

	cpuTime time.Duration

	// CFS bandwidth control (SetQuota).
	quota          time.Duration // 0 = unlimited
	quotaPeriod    time.Duration
	quotaUsed      time.Duration
	quotaWindow    time.Duration // current period index
	throttled      bool
	throttleEvents int64

	// PSI accounting.
	stallTime  time.Duration
	stallSince stallClock
}

// event kinds for the discrete-event loop.
type eventKind int

const (
	eventCPUFree eventKind = iota + 1
	eventTimer
	eventRefill
)

type event struct {
	at    time.Duration
	seq   int64
	kind  eventKind
	cpu   int     // eventCPUFree
	th    *thread // eventTimer
	group *cgroup // eventRefill
}

// before orders events by (at, seq). seq is unique, so the order is total
// and the pop sequence does not depend on the heap's internal layout.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events stored by value, so scheduling
// an event allocates nothing once the backing array has grown.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // drop thread/cgroup references
	q = q[:n]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && q[l].before(&q[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// cpu is one simulated processor.
type cpu struct {
	index    int
	capacity float64
	idle     bool
	current  *thread  // thread whose slice is in flight
	last     *thread  // thread that ran most recently (switch-cost check)
	pending  Decision // decision to apply when current's slice ends
	// ctx is handed to every Runner dispatched on this CPU. Its wakes
	// collect during the slice and are applied and truncated when the
	// slice ends, so steady-state dispatch allocates nothing.
	ctx      RunContext
	busyTime time.Duration // cumulative busy virtual wall time
	switches int64
}

// Kernel is a simulated node: a virtual clock, CPUs, threads, and cgroups.
// All methods must be called from a single goroutine.
type Kernel struct {
	cfg    Config
	now    time.Duration
	seq    int64
	events eventHeap

	cpus     []*cpu
	threads  map[ThreadID]*thread
	cgroups  map[CgroupID]*cgroup
	root     *cgroup
	nextTID  ThreadID
	nextCGID CgroupID
	// rt lists the live real-time threads in id order; pickRT scans only
	// these, and returns at once when there are none.
	rt []*thread

	contractViolations int64
}

// New creates a simulated node.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	root := &cgroup{
		id:     RootCgroup,
		name:   "/",
		shares: SharesDefault,
		weight: float64(SharesDefault),
	}
	k := &Kernel{
		cfg:      cfg,
		threads:  make(map[ThreadID]*thread),
		cgroups:  map[CgroupID]*cgroup{RootCgroup: root},
		root:     root,
		nextTID:  1,
		nextCGID: RootCgroup + 1,
	}
	for i := 0; i < cfg.CPUs; i++ {
		cap := 1.0
		if i < len(cfg.Capacities) && cfg.Capacities[i] > 0 {
			cap = cfg.Capacities[i]
		}
		k.cpus = append(k.cpus, &cpu{index: i, capacity: cap, idle: true})
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// CPUCount returns the number of simulated processors.
func (k *Kernel) CPUCount() int { return len(k.cpus) }

// Quantum returns the configured dispatch timeslice.
func (k *Kernel) Quantum() time.Duration { return k.cfg.Quantum }

// SwitchCost returns the configured context-switch overhead. User-level
// schedulers consult it to charge the equivalent working-set-change cost
// when a worker thread switches between operators.
func (k *Kernel) SwitchCost() time.Duration { return k.cfg.SwitchCost }

// ContractViolations counts Runner results that had to be corrected (e.g.
// yielding without consuming CPU). A correct workload reports zero.
func (k *Kernel) ContractViolations() int64 { return k.contractViolations }

// NewWaitQueue creates a wait queue with a diagnostic name.
func (k *Kernel) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name}
}

// Spawn creates a runnable thread in cgroup cg with nice 0.
func (k *Kernel) Spawn(name string, cg CgroupID, r Runner) (ThreadID, error) {
	g, ok := k.cgroups[cg]
	if !ok {
		return 0, &NotFoundError{Kind: "cgroup", ID: int(cg)}
	}
	t := &thread{
		id:     k.nextTID,
		name:   name,
		runner: r,
		nice:   NiceDefault,
		weight: NiceWeight(NiceDefault),
		group:  g,
		state:  stateSleeping, // placed properly by wake below
	}
	k.nextTID++
	k.threads[t.id] = t
	g.threads = append(g.threads, t)
	t.vruntime = g.minVR
	k.makeRunnable(t)
	k.kickIdleCPUs()
	return t.id, nil
}

// liveThread resolves a tid, treating exited threads as gone — control
// operations on them fail with NotFoundError, the simulator's ESRCH.
func (k *Kernel) liveThread(id ThreadID) (*thread, bool) {
	t, ok := k.threads[id]
	if !ok || t.state == stateExited {
		return nil, false
	}
	return t, true
}

// SetNice sets a thread's nice value (clamped to [-20, 19]).
func (k *Kernel) SetNice(id ThreadID, nice int) error {
	t, ok := k.liveThread(id)
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	t.nice = ClampNice(nice)
	t.weight = NiceWeight(t.nice)
	return nil
}

// Nice returns a thread's nice value.
func (k *Kernel) Nice(id ThreadID) (int, error) {
	t, ok := k.liveThread(id)
	if !ok {
		return 0, &NotFoundError{Kind: "thread", ID: int(id)}
	}
	return t.nice, nil
}

// KillThread forcefully exits a thread at the current virtual time — the
// chaos hook modeling an SPE worker crash. A running thread's in-flight
// slice still completes (its CPU was already consumed) but its scheduling
// decision is discarded; all later control operations on the tid fail with
// NotFoundError, like ESRCH after a real thread death.
func (k *Kernel) KillThread(id ThreadID) error {
	t, ok := k.liveThread(id)
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	switch t.state {
	case stateRunnable:
		k.addRunnable(t.group, -1)
		k.addPickable(t.group, -1)
	case stateRunning:
		// Pickable was already decremented at dispatch; finishSlice sees
		// the exited state and drops the pending decision.
		k.addRunnable(t.group, -1)
	case stateWaiting, stateSleeping:
		// Wait queues and timers skip non-waiting/non-sleeping threads.
	}
	k.exit(t)
	return nil
}

// exit marks a thread exited and takes it out of the real-time class list.
func (k *Kernel) exit(t *thread) {
	t.state = stateExited
	k.removeRT(t)
}

// CreateCgroup creates a child cgroup under parent with default shares.
func (k *Kernel) CreateCgroup(parent CgroupID, name string) (CgroupID, error) {
	p, ok := k.cgroups[parent]
	if !ok {
		return 0, &NotFoundError{Kind: "cgroup", ID: int(parent)}
	}
	g := &cgroup{
		id:     k.nextCGID,
		name:   name,
		shares: SharesDefault,
		weight: float64(SharesDefault),
		parent: p,
	}
	k.nextCGID++
	g.vruntime = p.minVR
	p.children = append(p.children, g)
	k.cgroups[g.id] = g
	return g.id, nil
}

// SetShares sets a cgroup's cpu.shares (clamped to the valid range). The
// root cgroup's shares have no effect, as on Linux.
func (k *Kernel) SetShares(id CgroupID, shares int) error {
	g, ok := k.cgroups[id]
	if !ok {
		return &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	g.shares = ClampShares(shares)
	g.weight = float64(g.shares)
	return nil
}

// Shares returns a cgroup's cpu.shares.
func (k *Kernel) Shares(id CgroupID) (int, error) {
	g, ok := k.cgroups[id]
	if !ok {
		return 0, &NotFoundError{Kind: "cgroup", ID: int(id)}
	}
	return g.shares, nil
}

// MoveThread migrates a thread to another cgroup, re-normalizing its
// vruntime against the destination (like task migration on Linux).
func (k *Kernel) MoveThread(id ThreadID, cg CgroupID) error {
	t, ok := k.liveThread(id)
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	dst, ok := k.cgroups[cg]
	if !ok {
		return &NotFoundError{Kind: "cgroup", ID: int(cg)}
	}
	if t.group == dst {
		return nil
	}
	src := t.group
	// Withdraw accounting from the old chain.
	wasRunnable := t.state == stateRunnable || t.state == stateRunning
	wasPickable := t.state == stateRunnable
	if wasRunnable {
		k.addRunnable(src, -1)
	}
	if wasPickable {
		k.addPickable(src, -1)
	}
	removeThread(src, t)
	// Attach to the new chain.
	t.group = dst
	dst.threads = append(dst.threads, t)
	t.vruntime = dst.minVR
	if wasRunnable {
		k.addRunnable(dst, 1)
	}
	if wasPickable {
		k.addPickable(dst, 1)
	}
	return nil
}

func removeThread(g *cgroup, t *thread) {
	for i, x := range g.threads {
		if x == t {
			g.threads = append(g.threads[:i], g.threads[i+1:]...)
			return
		}
	}
}

// Wake wakes all threads blocked on wq at the current virtual time. It is
// intended for glue code outside any Runner; inside a Runner use
// RunContext.Wake.
func (k *Kernel) Wake(wq *WaitQueue) {
	k.wakeAll(wq)
	k.kickIdleCPUs()
}

func (k *Kernel) wakeAll(wq *WaitQueue) {
	if wq == nil || len(wq.waiters) == 0 {
		return
	}
	ws := wq.waiters
	for _, t := range ws {
		if t.state != stateWaiting {
			continue
		}
		t.wakeups++
		k.makeRunnable(t)
	}
	// Reuse the backing array: nothing appends to a queue while it wakes.
	clear(ws)
	wq.waiters = ws[:0]
}

// makeRunnable transitions a blocked (or new) thread to runnable with
// sleeper-fairness vruntime placement.
func (k *Kernel) makeRunnable(t *thread) {
	if t.state == stateRunnable || t.state == stateRunning || t.state == stateExited {
		return
	}
	t.state = stateRunnable
	// Sleeper fairness: do not let a long sleeper hoard credit, but give it
	// a small bonus so it runs soon (GENTLE_FAIR_SLEEPERS).
	floor := t.group.minVR - k.cfg.SchedLatency/2
	if t.vruntime < floor {
		t.vruntime = floor
	}
	k.addRunnable(t.group, 1)
	k.addPickable(t.group, 1)
}

// addRunnable adjusts nrRunnable up the chain, normalizing the vruntime of
// groups that transition from empty to non-empty.
func (k *Kernel) addRunnable(g *cgroup, delta int) {
	for ; g != nil; g = g.parent {
		was := g.nrRunnable
		g.nrRunnable += delta
		if delta > 0 && was == 0 && g.parent != nil {
			floor := g.parent.minVR - k.cfg.SchedLatency/2
			if g.vruntime < floor {
				g.vruntime = floor
			}
		}
	}
}

func (k *Kernel) addPickable(g *cgroup, delta int) {
	for ; g != nil; g = g.parent {
		before := g.nrPickable
		g.nrPickable += delta
		k.notePickable(g, before, g.nrPickable)
	}
}

// pick selects the pickable thread with minimum vruntime, descending the
// cgroup hierarchy (hierarchical start-time fair queueing; the simulator's
// model of CFS group scheduling).
func (k *Kernel) pick() *thread {
	g := k.root
	for {
		var bestG *cgroup
		for _, c := range g.children {
			if c.nrPickable <= 0 || c.throttled {
				continue
			}
			if bestG == nil || less(c.vruntime, int(c.id), bestG.vruntime, int(bestG.id)) {
				bestG = c
			}
		}
		var bestT *thread
		for _, t := range g.threads {
			if t.state != stateRunnable {
				continue
			}
			if bestT == nil || less(t.vruntime, int(t.id), bestT.vruntime, int(bestT.id)) {
				bestT = t
			}
		}
		switch {
		case bestG == nil && bestT == nil:
			return nil
		case bestG == nil:
			return bestT
		case bestT == nil:
			g = bestG
		case less(bestT.vruntime, int(bestT.id), bestG.vruntime, int(bestG.id)):
			return bestT
		default:
			g = bestG
		}
	}
}

func less(v1 time.Duration, id1 int, v2 time.Duration, id2 int) bool {
	if v1 != v2 {
		return v1 < v2
	}
	return id1 < id2
}

// charge adds used CPU time to a thread and its ancestor groups, advancing
// vruntimes by used*1024/weight and maintaining each group's min_vruntime.
func (k *Kernel) charge(t *thread, used time.Duration) {
	if used <= 0 {
		return
	}
	t.cpuTime += used
	t.vruntime += scaleInverse(used, t.weight)
	k.chargeQuota(t.group, used)
	updateMinVR(t.group)
	for g := t.group; g != nil; g = g.parent {
		g.cpuTime += used
		if g.parent != nil {
			g.vruntime += scaleInverse(used, g.weight)
			updateMinVR(g.parent)
		}
	}
}

// scaleInverse returns d * 1024 / weight.
func scaleInverse(d time.Duration, weight float64) time.Duration {
	return time.Duration(float64(d) * weightNice0 / weight)
}

// updateMinVR advances g.minVR monotonically toward the minimum vruntime of
// g's runnable children.
func updateMinVR(g *cgroup) {
	if g == nil {
		return
	}
	min := time.Duration(1<<63 - 1)
	found := false
	for _, c := range g.children {
		if c.nrRunnable > 0 && c.vruntime < min {
			min = c.vruntime
			found = true
		}
	}
	for _, t := range g.threads {
		if (t.state == stateRunnable || t.state == stateRunning) && t.vruntime < min {
			min = t.vruntime
			found = true
		}
	}
	if found && min > g.minVR {
		g.minVR = min
	}
}

// schedule pushes an event onto the heap.
func (k *Kernel) schedule(e event) {
	e.seq = k.seq
	k.seq++
	k.events.push(e)
}

// kickIdleCPUs schedules an immediate dispatch on every idle CPU.
func (k *Kernel) kickIdleCPUs() {
	for _, c := range k.cpus {
		if c.idle {
			c.idle = false
			k.schedule(event{at: k.now, kind: eventCPUFree, cpu: c.index})
		}
	}
}

// SleepThread blocks a RUNNABLE thread externally until wakeAt. It is glue
// for controller-style code outside Runners; normal threads block by
// returning ActionSleep.
func (k *Kernel) SleepThread(id ThreadID, wakeAt time.Duration) error {
	t, ok := k.threads[id]
	if !ok {
		return &NotFoundError{Kind: "thread", ID: int(id)}
	}
	if t.state != stateRunnable {
		return fmt.Errorf("simos: thread %d not runnable", id)
	}
	t.state = stateSleeping
	k.addRunnable(t.group, -1)
	k.addPickable(t.group, -1)
	k.schedule(event{at: wakeAt, kind: eventTimer, th: t})
	return nil
}

// Step processes one event. It returns false when no events remain (all
// CPUs idle and no timers pending).
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	if e.at > k.now {
		k.now = e.at
	}
	switch e.kind {
	case eventTimer:
		if e.th.state == stateSleeping {
			k.makeRunnable(e.th)
			k.kickIdleCPUs()
		}
	case eventRefill:
		if e.group.throttled {
			k.unthrottle(e.group)
			k.kickIdleCPUs()
		}
	case eventCPUFree:
		c := k.cpus[e.cpu]
		k.finishSlice(c)
		k.dispatch(c)
	}
	return true
}

// RunUntil advances virtual time to t, processing all events before it.
// If the system goes fully idle with no timers, the clock jumps to t.
func (k *Kernel) RunUntil(t time.Duration) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// finishSlice applies the pending decision of the slice that just completed
// on c, if any.
func (k *Kernel) finishSlice(c *cpu) {
	t := c.current
	if t == nil {
		return
	}
	d := c.pending
	c.current, c.pending = nil, Decision{}
	// Wakes requested during the slice take effect now.
	for _, wq := range c.ctx.wakes {
		k.wakeAll(wq)
	}
	c.ctx.wakes = c.ctx.wakes[:0]

	if t.state == stateExited {
		// Killed mid-slice: the work was done but the thread is gone, so
		// its decision (sleep/wait/yield) must not resurrect it.
		k.kickIdleCPUs()
		return
	}

	switch d.Action {
	case ActionYield:
		t.state = stateRunnable
		k.addPickable(t.group, 1)
	case ActionSleep:
		if d.WakeAt <= k.now {
			t.state = stateRunnable
			k.addPickable(t.group, 1)
			break
		}
		t.state = stateSleeping
		k.addRunnable(t.group, -1)
		k.schedule(event{at: d.WakeAt, kind: eventTimer, th: t})
	case ActionWait:
		if d.WaitOn == nil {
			k.contractViolations++
			t.state = stateRunnable
			k.addPickable(t.group, 1)
			break
		}
		if d.WaitUnless != nil && d.WaitUnless(k.now) {
			// The awaited condition already holds; don't block.
			t.state = stateRunnable
			k.addPickable(t.group, 1)
			break
		}
		t.state = stateWaiting
		k.addRunnable(t.group, -1)
		d.WaitOn.waiters = append(d.WaitOn.waiters, t)
	case ActionExit:
		k.exit(t)
		k.addRunnable(t.group, -1)
	default:
		k.contractViolations++
		t.state = stateRunnable
		k.addPickable(t.group, 1)
	}
	k.kickIdleCPUs()
}

// dispatch picks and runs the next thread on c, or idles the CPU.
func (k *Kernel) dispatch(c *cpu) {
	// Real-time threads preempt the fair class entirely (SCHED_FIFO).
	t := k.pickRT()
	if t == nil {
		t = k.pick()
	}
	if t == nil {
		c.idle = true
		return
	}
	t.state = stateRunning
	t.dispatches++
	k.addPickable(t.group, -1)

	// Context-switch overhead: charged when the CPU changes thread.
	var overhead time.Duration
	if k.cfg.SwitchCost > 0 && c.last != t {
		overhead = k.cfg.SwitchCost
		c.switches++
	}
	c.last = t

	c.ctx.now = k.now
	granted := k.cfg.Quantum - overhead
	d := t.runner.Run(&c.ctx, granted)
	if d.Used < 0 {
		k.contractViolations++
		d.Used = 0
	}
	if d.Used > granted {
		k.contractViolations++
		d.Used = granted
	}
	if d.Action == ActionYield && d.Used == 0 {
		// A yield that consumed nothing would live-lock the simulation.
		k.contractViolations++
		d.Used = time.Microsecond
	}
	k.charge(t, d.Used+overhead)

	c.current = t
	c.pending = d
	wall := time.Duration(float64(d.Used+overhead) / c.capacity)
	c.busyTime += wall
	k.schedule(event{at: k.now + wall, kind: eventCPUFree, cpu: c.index})
}
