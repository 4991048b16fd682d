package main

import (
	"sync/atomic"
	"testing"
	"time"

	"lachesis/internal/core"
	"lachesis/internal/guard"
)

// countingOS counts nice writes without allocating.
type countingOS struct{ nices atomic.Int64 }

func (o *countingOS) SetNice(tid, nice int) error  { o.nices.Add(1); return nil }
func (o *countingOS) EnsureCgroup(string) error    { return nil }
func (o *countingOS) SetShares(string, int) error  { return nil }
func (o *countingOS) MoveThread(int, string) error { return nil }

// TestShippedStackSteadyCycleZeroAllocs: the policy stack run() binds —
// a canary slot over the static transformed policy, the nice translator
// behind the write coalescer, the static driver — runs a steady decision
// cycle, canary tick included, without a heap allocation.
func TestShippedStackSteadyCycleZeroAllocs(t *testing.T) {
	var ents []core.Entity
	for i, logical := range [][]string{{"count"}, {"count", "toll"}, {"toll"}, {"toll"}, {"sink"}} {
		ents = append(ents, core.Entity{Name: "q.op." + string(rune('a'+i)), Driver: "static",
			Query: "q", Thread: 100 + i, Logical: logical})
	}
	backend := &countingOS{}
	co := core.NewCoalescer(backend, nil)
	canary := guard.NewCanary(guard.Config{})
	mw := core.NewMiddleware(nil)
	defer mw.Close()
	mw.SetWriteGate(core.NewDriverGate())
	if err := mw.Bind(core.Binding{
		Policy:     canary.Slot(buildPolicy(map[string]float64{"count": 10, "toll": 1})),
		Translator: core.NewNiceTranslator(co),
		Drivers:    []core.Driver{&staticDriver{entities: ents}},
		Coalescer:  co,
		Period:     time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	step := func() {
		if _, err := mw.Step(now); err != nil {
			t.Fatal(err)
		}
		canary.Tick(now)
		now += time.Second
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if got := backend.nices.Load(); got != int64(len(ents)) {
		t.Fatalf("backend saw %d nice writes, want %d (one per entity, then suppressed)", got, len(ents))
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times, want 0", avg)
	}
}
