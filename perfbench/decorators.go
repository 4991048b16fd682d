package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/driver"
	"lachesis/internal/metrics"
	"lachesis/internal/spe"
)

// Timing decorators for the traced runs. Each wraps one layer boundary
// from the benchmark's side, forwards every call unchanged and counts
// calls, busy time and errors. A decorator exposes exactly the optional
// capabilities of what it wraps, and the constructors refuse a value
// whose capabilities they cannot mirror: a decorator that hid or added a
// capability would make the traced run measure a different program.

// timer accumulates one boundary's calls. Safe for concurrent use.
type timer struct {
	calls atomic.Int64
	nanos atomic.Int64
	errs  atomic.Int64
}

func (t *timer) observe(start time.Time, err error) {
	t.calls.Add(1)
	t.nanos.Add(int64(time.Since(start)))
	if err != nil {
		t.errs.Add(1)
	}
}

func (t *timer) total() time.Duration { return time.Duration(t.nanos.Load()) }

// avgUS is the mean call time in microseconds (0 without calls).
func (t *timer) avgUS() float64 {
	n := t.calls.Load()
	if n == 0 {
		return 0
	}
	return us(t.total()) / float64(n)
}

// --- capabilities ---

// caps is a set of the optional interfaces a layer may type-assert.
type caps uint16

const (
	capBatch caps = 1 << iota
	capRemover
	capRestorer
	capInvalidator
	capObserver
	capQuota
	capRT
	capApplyGuard
	capInPlace
	capResetter
	capClamps
)

var capNames = []string{"BatchApplier", "CgroupRemover", "PlacementRestorer", "CacheInvalidator",
	"Observer", "QuotaController", "RTController", "ApplyGuard", "InPlaceScheduler", "Resetter", "ObserveClamps"}

func (c caps) String() string {
	var out []string
	for i, n := range capNames {
		if c&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return "{" + strings.Join(out, ",") + "}"
}

type clampObservable interface{ ObserveClamps(core.ClampObserver) }

// capsOf lists the optional interfaces v implements.
func capsOf(v any) caps {
	var c caps
	if _, ok := v.(core.BatchApplier); ok {
		c |= capBatch
	}
	if _, ok := v.(core.CgroupRemover); ok {
		c |= capRemover
	}
	if _, ok := v.(core.PlacementRestorer); ok {
		c |= capRestorer
	}
	if _, ok := v.(core.CacheInvalidator); ok {
		c |= capInvalidator
	}
	if _, ok := v.(core.Observer); ok {
		c |= capObserver
	}
	if _, ok := v.(core.QuotaController); ok {
		c |= capQuota
	}
	if _, ok := v.(core.RTController); ok {
		c |= capRT
	}
	if _, ok := v.(core.ApplyGuard); ok {
		c |= capApplyGuard
	}
	if _, ok := v.(core.InPlaceScheduler); ok {
		c |= capInPlace
	}
	if _, ok := v.(core.Resetter); ok {
		c |= capResetter
	}
	if _, ok := v.(clampObservable); ok {
		c |= capClamps
	}
	return c
}

// mirrored checks that a decorator exposes exactly its inner value's
// capabilities.
func mirrored(inner, outer any) error {
	if want, got := capsOf(inner), capsOf(outer); want != got {
		return fmt.Errorf("decorator of %T exposes %s, the wrapped value %s", inner, got, want)
	}
	return nil
}

// --- OSInterface hops ---

// osTimers are the per-method timers of one OSInterface hop.
type osTimers struct {
	nice, ensure, shares, move, remove, restore, batch, quota, observe timer
	// finish times ApplyGuard.FinishApply on a guard hop.
	finish timer
}

// writes are the timers of the control-write methods.
func (t *osTimers) writes() []*timer {
	return []*timer{&t.nice, &t.ensure, &t.shares, &t.move, &t.remove, &t.restore, &t.batch, &t.quota}
}

// writeTotal is the busy time of every control write through the hop.
func (t *osTimers) writeTotal() time.Duration {
	var d time.Duration
	for _, w := range t.writes() {
		d += w.total()
	}
	return d
}

func (t *osTimers) writeCalls() int64 {
	var n int64
	for _, w := range t.writes() {
		n += w.calls.Load()
	}
	return n
}

func (t *osTimers) writeErrs() int64 {
	var n int64
	for _, w := range t.writes() {
		n += w.errs.Load()
	}
	return n
}

type osHop struct {
	inner core.OSInterface
	t     *osTimers
}

func (h *osHop) SetNice(tid, nice int) error {
	s := time.Now()
	err := h.inner.SetNice(tid, nice)
	h.t.nice.observe(s, err)
	return err
}

func (h *osHop) EnsureCgroup(name string) error {
	s := time.Now()
	err := h.inner.EnsureCgroup(name)
	h.t.ensure.observe(s, err)
	return err
}

func (h *osHop) SetShares(name string, shares int) error {
	s := time.Now()
	err := h.inner.SetShares(name, shares)
	h.t.shares.observe(s, err)
	return err
}

func (h *osHop) MoveThread(tid int, name string) error {
	s := time.Now()
	err := h.inner.MoveThread(tid, name)
	h.t.move.observe(s, err)
	return err
}

type hopBatch struct{ h *osHop }

func (b hopBatch) ApplyBatch(ops []core.ControlOp, errs []error) {
	s := time.Now()
	b.h.inner.(core.BatchApplier).ApplyBatch(ops, errs)
	b.h.t.batch.observe(s, nil)
}

type hopRemover struct{ h *osHop }

func (r hopRemover) RemoveCgroup(name string) error {
	s := time.Now()
	err := r.h.inner.(core.CgroupRemover).RemoveCgroup(name)
	r.h.t.remove.observe(s, err)
	return err
}

type hopRestorer struct{ h *osHop }

func (r hopRestorer) RestoreThread(tid int) error {
	s := time.Now()
	err := r.h.inner.(core.PlacementRestorer).RestoreThread(tid)
	r.h.t.restore.observe(s, err)
	return err
}

type hopInvalidator struct{ h *osHop }

func (i hopInvalidator) InvalidateThread(tid int) {
	i.h.inner.(core.CacheInvalidator).InvalidateThread(tid)
}

func (i hopInvalidator) InvalidateCgroup(name string) {
	i.h.inner.(core.CacheInvalidator).InvalidateCgroup(name)
}

type hopQuota struct{ h *osHop }

func (q hopQuota) SetQuota(name string, quota, period time.Duration) error {
	s := time.Now()
	err := q.h.inner.(core.QuotaController).SetQuota(name, quota, period)
	q.h.t.quota.observe(s, err)
	return err
}

type hopRT struct{ h *osHop }

func (r hopRT) SetRealtime(tid, prio int) error {
	s := time.Now()
	err := r.h.inner.(core.RTController).SetRealtime(tid, prio)
	r.h.t.quota.observe(s, err)
	return err
}

func (r hopRT) SetNormal(tid int) error {
	s := time.Now()
	err := r.h.inner.(core.RTController).SetNormal(tid)
	r.h.t.quota.observe(s, err)
	return err
}

type hopGuard struct{ h *osHop }

func (g hopGuard) BeginApply(now time.Duration, binding string, view *core.View) {
	g.h.inner.(core.ApplyGuard).BeginApply(now, binding, view)
}

func (g hopGuard) FinishApply() error {
	s := time.Now()
	err := g.h.inner.(core.ApplyGuard).FinishApply()
	g.h.t.finish.observe(s, err)
	return err
}

func (g hopGuard) AbandonApply(done <-chan struct{}) {
	g.h.inner.(core.ApplyGuard).AbandonApply(done)
}

// wrapOS decorates one hop of the OS write chain. It supports the
// capability sets this benchmark's chains have and refuses any other.
func wrapOS(inner core.OSInterface, t *osTimers) (core.OSInterface, error) {
	h := &osHop{inner: inner, t: t}
	rm, rs, iv := hopRemover{h}, hopRestorer{h}, hopInvalidator{h}
	var out core.OSInterface
	switch base := capRemover | capRestorer | capInvalidator; capsOf(inner) {
	case base:
		out = &struct {
			*osHop
			hopRemover
			hopRestorer
			hopInvalidator
		}{h, rm, rs, iv}
	case base | capBatch:
		out = &struct {
			*osHop
			hopBatch
			hopRemover
			hopRestorer
			hopInvalidator
		}{h, hopBatch{h}, rm, rs, iv}
	case base | capApplyGuard:
		out = &struct {
			*osHop
			hopRemover
			hopRestorer
			hopInvalidator
			hopGuard
		}{h, rm, rs, iv, hopGuard{h}}
	case base | capObserver | capQuota | capRT:
		out = &struct {
			*osHop
			hopRemover
			hopRestorer
			hopInvalidator
			*timedObserver
			hopQuota
			hopRT
		}{h, rm, rs, iv, &timedObserver{inner: inner.(core.Observer), t: &t.observe}, hopQuota{h}, hopRT{h}}
	default:
		return nil, fmt.Errorf("no timing decorator mirrors %T with capabilities %s", inner, capsOf(inner))
	}
	if err := mirrored(inner, out); err != nil {
		return nil, err
	}
	return out, nil
}

// timedObserver decorates the reconciler's read side.
type timedObserver struct {
	inner core.Observer
	t     *timer
}

func (o *timedObserver) ObserveNice(tid int) (int, error) {
	s := time.Now()
	v, err := o.inner.ObserveNice(tid)
	o.t.observe(s, err)
	return v, err
}

func (o *timedObserver) ThreadIdentity(tid int) (uint64, error) {
	s := time.Now()
	v, err := o.inner.ThreadIdentity(tid)
	o.t.observe(s, err)
	return v, err
}

func (o *timedObserver) ObserveShares(name string) (int, error) {
	s := time.Now()
	v, err := o.inner.ObserveShares(name)
	o.t.observe(s, err)
	return v, err
}

func (o *timedObserver) InCgroup(tid int, name string) (bool, error) {
	s := time.Now()
	v, err := o.inner.InCgroup(tid, name)
	o.t.observe(s, err)
	return v, err
}

// timedIdent decorates the identity lookup RecordOS stamps entries with.
func timedIdent(ident func(int) uint64, t *timer) func(int) uint64 {
	return func(tid int) uint64 {
		s := time.Now()
		v := ident(tid)
		t.observe(s, nil)
		return v
	}
}

// --- decision pipeline ---

// spanLog keeps the wall-clock intervals of the calls made during one
// step, so the step's time outside them can be computed.
type spanLog struct {
	mu    sync.Mutex
	spans [][2]int64
}

func (l *spanLog) add(start time.Time, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, [2]int64{start.UnixNano(), end.UnixNano()})
	l.mu.Unlock()
}

// coveredAndReset returns how much of the logged intervals' union lies
// in [from, to] and clears the log.
func (l *spanLog) coveredAndReset(from, to time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = l.spans[:0]
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	lo, hi := from.UnixNano(), to.UnixNano()
	var covered, curA, curB int64
	open := false
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curA, curB, open = a, b, true
		case a <= curB:
			curB = max(curB, b)
		default:
			covered += curB - curA
			curA, curB = a, b
		}
	}
	if open {
		covered += curB - curA
	}
	return time.Duration(covered)
}

// timedDriver decorates core.Driver; Fetch is timed and logged.
type timedDriver struct {
	inner core.Driver
	t     *timer
	log   *spanLog
}

func (d *timedDriver) Name() string                { return d.inner.Name() }
func (d *timedDriver) Entities() []core.Entity     { return d.inner.Entities() }
func (d *timedDriver) Provides(metric string) bool { return d.inner.Provides(metric) }
func (d *timedDriver) Fetch(metric string, now time.Duration) (core.EntityValues, error) {
	s := time.Now()
	v, err := d.inner.Fetch(metric, now)
	d.t.observe(s, err)
	d.log.add(s, time.Now())
	return v, err
}

// timedPolicy decorates core.Policy; Schedule is timed and logged.
type timedPolicy struct {
	inner core.Policy
	t     *timer
	log   *spanLog
}

// timedInPlacePolicy decorates a policy that runs the middleware's
// in-place fast path. It names itself as the in-place target, so the
// middleware keeps taking the fast path through the decorator.
type timedInPlacePolicy struct{ timedPolicy }

// newTimedPolicy decorates inner. A policy whose in-place target is some
// other instance cannot be mirrored and is refused.
func newTimedPolicy(inner core.Policy, t *timer, log *spanLog) (core.Policy, error) {
	var p core.Policy = &timedPolicy{inner: inner, t: t, log: log}
	if ip, ok := inner.(core.InPlaceScheduler); ok {
		if ip.InPlaceTarget() != inner {
			return nil, fmt.Errorf("policy %T delegates its in-place path; no decorator mirrors it", inner)
		}
		p = &timedInPlacePolicy{timedPolicy{inner: inner, t: t, log: log}}
	}
	if err := mirrored(inner, p); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *timedPolicy) Name() string      { return p.inner.Name() }
func (p *timedPolicy) Metrics() []string { return p.inner.Metrics() }
func (p *timedPolicy) Schedule(view *core.View) (core.Schedule, error) {
	s := time.Now()
	sched, err := p.inner.Schedule(view)
	p.t.observe(s, err)
	p.log.add(s, time.Now())
	return sched, err
}

func (p *timedInPlacePolicy) ScheduleInto(view *core.View, out *core.Schedule) error {
	s := time.Now()
	err := p.inner.(core.InPlaceScheduler).ScheduleInto(view, out)
	p.t.observe(s, err)
	p.log.add(s, time.Now())
	return err
}

func (p *timedInPlacePolicy) InPlaceTarget() core.Policy { return p }

// timedTranslator decorates a translator that, like every built-in one
// this benchmark binds, is a Resetter and takes a clamp observer. Apply
// records its start so the binding's whole apply bracket (translate,
// guard, flush; its length is BindingStepStats.Apply) can be logged.
type timedTranslator struct {
	inner core.Translator
	t     *timer
	start atomic.Int64
}

func newTimedTranslator(inner core.Translator, t *timer) (core.Translator, error) {
	tt := &timedTranslator{inner: inner, t: t}
	if err := mirrored(inner, tt); err != nil {
		return nil, err
	}
	return tt, nil
}

func (t *timedTranslator) Name() string { return t.inner.Name() }
func (t *timedTranslator) Apply(sched core.Schedule, entities map[string]core.Entity) error {
	s := time.Now()
	t.start.Store(s.UnixNano())
	err := t.inner.Apply(sched, entities)
	t.t.observe(s, err)
	return err
}
func (t *timedTranslator) Reset(entities map[string]core.Entity) error {
	return t.inner.(core.Resetter).Reset(entities)
}
func (t *timedTranslator) ObserveClamps(obs core.ClampObserver) {
	t.inner.(clampObservable).ObserveClamps(obs)
}

// timedSource decorates the driver's metric-store reads.
type timedSource struct {
	inner driver.Source
	t     *timer
}

func (s *timedSource) Latest(series string) (metrics.Point, bool) {
	st := time.Now()
	p, ok := s.inner.Latest(series)
	s.t.observe(st, nil)
	return p, ok
}

// timedSink decorates the reporter's metric-store writes.
type timedSink struct {
	inner spe.MetricSink
	t     *timer
}

func (s *timedSink) Record(now time.Duration, series string, value float64) {
	st := time.Now()
	s.inner.Record(now, series, value)
	s.t.observe(st, nil)
}
