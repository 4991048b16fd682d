package main

import (
	"context"
	"testing"
	"time"

	"lachesis/internal/driver"
)

// kernelState is what a world left in the kernel, keyed by entity and
// cgroup name (thread ids differ between worlds).
type kernelState struct {
	nice   map[string]int
	shares map[string]int
}

func readKernel(t *testing.T, w *controlWorld) kernelState {
	t.Helper()
	ks := kernelState{nice: map[string]int{}, shares: map[string]int{}}
	for _, b := range w.bindings {
		for _, e := range b.ents {
			n, err := w.ctl.ObserveNice(e.Thread)
			if err != nil {
				t.Fatal(err)
			}
			ks.nice[e.Name] = n
		}
		s, err := w.ctl.ObserveShares(b.group)
		if err != nil {
			t.Fatal(err)
		}
		ks.shares[b.group] = s
	}
	return ks
}

// runWorld builds a world, runs cycles covering several reconciler
// passes, records its boundaries' capabilities and the kernel state, and
// tears it down.
func runWorld(t *testing.T, churn, traced bool) ([]caps, kernelState) {
	t.Helper()
	w, err := buildControl(11, churn, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.teardown(); err != nil {
			t.Error(err)
		}
	}()
	ph := w.measure(context.Background(), time.Time{}, 3*reconcileEvery+1)
	if len(ph.problems) > 0 {
		t.Fatalf("cycles failed: %v", ph.problems)
	}
	var cs []caps
	for _, v := range w.boundaries {
		cs = append(cs, capsOf(v))
	}
	return cs, readKernel(t, w)
}

// TestTracedChainMatchesUntraced checks that every decorated boundary
// exposes exactly the capabilities of the value it wraps and that the
// traced and untraced chains, fed the same inputs, leave the kernel in
// the same state.
func TestTracedChainMatchesUntraced(t *testing.T) {
	requireHost(t)
	for _, churn := range []bool{false, true} {
		plainCaps, plainState := runWorld(t, churn, false)
		tracedCaps, tracedState := runWorld(t, churn, true)
		if len(plainCaps) != len(tracedCaps) {
			t.Fatalf("churn=%v: %d boundaries untraced, %d traced", churn, len(plainCaps), len(tracedCaps))
		}
		for i := range plainCaps {
			if plainCaps[i] != tracedCaps[i] {
				t.Errorf("churn=%v: boundary %d exposes %s traced, %s untraced", churn, i, tracedCaps[i], plainCaps[i])
			}
		}
		for name, n := range plainState.nice {
			if tracedState.nice[name] != n {
				t.Errorf("churn=%v: nice of %s is %d traced, %d untraced", churn, name, tracedState.nice[name], n)
			}
		}
		for name, s := range plainState.shares {
			if tracedState.shares[name] != s {
				t.Errorf("churn=%v: shares of %s is %d traced, %d untraced", churn, name, tracedState.shares[name], s)
			}
		}
	}
}

// TestDecoratorsMirrorOrRefuse checks the constructors' guard: the
// write-queue backend (a BatchApplier) is mirrored exactly, and a value
// with a capability set no decorator mirrors is refused.
func TestDecoratorsMirrorOrRefuse(t *testing.T) {
	q := driver.NewQueuedOS(&removerOnly{}, 0)
	defer q.Close()
	if _, err := wrapOS(q, &osTimers{}); err != nil {
		t.Errorf("write-queue backend: %v", err)
	}
	if _, err := wrapOS(&removerOnly{}, &osTimers{}); err == nil {
		t.Error("OSInterface with only CgroupRemover was wrapped, dropping or adding capabilities")
	}
}

type removerOnly struct{ memOS }

func (*removerOnly) RemoveCgroup(string) error { return nil }
