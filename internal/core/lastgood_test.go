package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// gatedDriver returns a fresh map per Fetch whose value for entity "a" is
// the fetch's sequence number. While gated, every Fetch blocks until the
// test sends on release, so the middleware's fetch timeout abandons it
// in the middle of Provider.UpdateOne.
type gatedDriver struct {
	ents    []Entity
	fetches atomic.Int64
	gated   atomic.Bool
	release chan struct{}
}

func (d *gatedDriver) Name() string                { return "gated" }
func (d *gatedDriver) Entities() []Entity          { return d.ents }
func (d *gatedDriver) Provides(metric string) bool { return metric == MetricQueueSize }

func (d *gatedDriver) Fetch(string, time.Duration) (EntityValues, error) {
	n := d.fetches.Add(1)
	if d.gated.Load() {
		<-d.release
	}
	return EntityValues{"a": float64(n), "b": 1}, nil
}

// seenPolicy records the queue size of entity "a" in every view it is
// given (-1 when the view has none), then schedules as QS.
type seenPolicy struct {
	inner QSPolicy
	seen  []float64
}

func (p *seenPolicy) Name() string      { return "seen-probe" }
func (p *seenPolicy) Metrics() []string { return p.inner.Metrics() }

func (p *seenPolicy) Schedule(v *View) (Schedule, error) {
	x, ok := v.Value(MetricQueueSize, "a")
	if !ok {
		x = -1
	}
	p.seen = append(p.seen, x)
	return p.inner.Schedule(v)
}

// TestAbandonedFetchKeepsLastGood is the regression test for a data race:
// the provider double-buffers each driver's value map, so the map one
// update returns is cleared and refilled two updates later. A fetch
// abandoned by the fetch timeout still completes its update unseen, so
// the next one recycled the map the middleware was serving as last-good
// values — clearing it while buildView read it. Run it under -race.
func TestAbandonedFetchKeepsLastGood(t *testing.T) {
	d := &gatedDriver{
		ents: []Entity{
			{Name: "a", Driver: "gated", Query: "q", Thread: 1},
			{Name: "b", Driver: "gated", Query: "q", Thread: 2},
		},
		release: make(chan struct{}),
	}
	pol := &seenPolicy{}
	mw := NewMiddleware(nil)
	defer mw.Close()
	mw.SetParallelism(Parallelism{FetchTimeout: 20 * time.Millisecond})
	mw.SetResilience(Resilience{FailureThreshold: 100, StalenessBound: time.Minute})
	if err := mw.Bind(Binding{
		Policy: pol, Translator: NewNiceTranslator(newFakeOS()),
		Drivers: []Driver{d}, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// finish lets the one abandoned fetch in flight complete its update,
	// and waits until it has.
	finish := func() {
		d.release <- struct{}{}
		fl := mw.provider.flightLock(d.Name())
		fl.Lock()
		fl.Unlock()
	}

	for _, now := range []time.Duration{0, time.Second} {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	d.gated.Store(true)
	// The first abandoned fetch completes in the background; the second
	// reuses the provider's buffer that held the last good values and
	// blocks after clearing it, while the step falls back to them.
	for _, now := range []time.Duration{2 * time.Second, 3 * time.Second} {
		if _, err := mw.Step(now); err == nil {
			t.Fatalf("t=%v: an abandoned fetch should surface an error", now)
		}
		finish()
	}
	if want := []float64{1, 2, 2, 2}; !slices.Equal(pol.seen, want) {
		t.Fatalf("queue size of a per run = %v, want %v (stale runs serve fetch 2)", pol.seen, want)
	}
}
