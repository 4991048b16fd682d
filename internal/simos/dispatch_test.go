package simos

import (
	"testing"
	"time"
)

// TestKernelDispatchZeroAllocs asserts that once the event heap has grown
// to its working size, a dispatch allocates nothing: events are stored by
// value and each CPU reuses one RunContext. The setup is
// BenchmarkKernelDispatch's: 16 busy threads on 4 CPUs.
func TestKernelDispatchZeroAllocs(t *testing.T) {
	k := New(Config{CPUs: 4})
	for i := 0; i < 16; i++ {
		mustSpawn(t, k, "w", RootCgroup, busyRunner())
	}
	step := func() {
		if !k.Step() {
			t.Fatal("kernel stalled")
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("Kernel.Step allocates %.2f times per dispatch, want 0", avg)
	}
}

// TestWaitWakeZeroAllocs covers the blocking path: a producer wakes a
// consumer that waits on a queue with a WaitUnless check, so every slice
// goes through RunContext.Wake, wakeAll and a wait-queue append.
func TestWaitWakeZeroAllocs(t *testing.T) {
	k := New(Config{CPUs: 2})
	wq := k.NewWaitQueue("data")
	var items int
	hasItems := func(time.Duration) bool { return items > 0 }
	mustSpawn(t, k, "producer", RootCgroup, RunnerFunc(func(ctx *RunContext, granted time.Duration) Decision {
		items++
		ctx.Wake(wq)
		return Decision{Used: 50 * time.Microsecond, Action: ActionSleep, WakeAt: ctx.Now() + 200*time.Microsecond}
	}))
	mustSpawn(t, k, "consumer", RootCgroup, RunnerFunc(func(ctx *RunContext, granted time.Duration) Decision {
		items = 0
		return Decision{Used: 20 * time.Microsecond, Action: ActionWait, WaitOn: wq, WaitUnless: hasItems}
	}))
	now := 10 * time.Millisecond
	k.RunUntil(now)
	if avg := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		k.RunUntil(now)
	}); avg != 0 {
		t.Fatalf("a millisecond of wait/wake traffic allocates %.2f times, want 0", avg)
	}
	info, err := k.ThreadInfo(2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Wakeups < 100 {
		t.Fatalf("consumer woke %d times, want the wait path exercised", info.Wakeups)
	}
}

// TestPickRTPreemptsFairThreads: with fair threads runnable, the next
// dispatch runs the real-time thread.
func TestPickRTPreemptsFairThreads(t *testing.T) {
	k := New(Config{CPUs: 1})
	fair := mustSpawn(t, k, "fair", RootCgroup, busyRunner())
	mustSpawn(t, k, "fair2", RootCgroup, busyRunner())
	rt := mustSpawn(t, k, "rt", RootCgroup, busyRunner())
	if k.pickRT() != nil {
		t.Fatal("pickRT returned a thread with no real-time class member")
	}
	if err := k.SetRealtime(rt, 10); err != nil {
		t.Fatal(err)
	}
	if got := k.pickRT(); got == nil || got.id != rt {
		t.Fatalf("pickRT = %v, want thread %d", got, rt)
	}
	k.Step()
	rinfo, _ := k.ThreadInfo(rt)
	finfo, _ := k.ThreadInfo(fair)
	if rinfo.Dispatches != 1 || finfo.Dispatches != 0 {
		t.Fatalf("dispatches rt=%d fair=%d, want 1 and 0", rinfo.Dispatches, finfo.Dispatches)
	}
}

// TestPickRTEqualPriorityLowestID: among runnable threads of the highest
// priority the lowest id wins, whatever order they entered the class in.
func TestPickRTEqualPriorityLowestID(t *testing.T) {
	k := New(Config{CPUs: 1})
	a := mustSpawn(t, k, "a", RootCgroup, busyRunner())
	b := mustSpawn(t, k, "b", RootCgroup, busyRunner())
	c := mustSpawn(t, k, "c", RootCgroup, busyRunner())
	for _, set := range []struct {
		id   ThreadID
		prio int
	}{{c, 50}, {b, 50}, {a, 20}} {
		if err := k.SetRealtime(set.id, set.prio); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		id   ThreadID
		prio int
		want ThreadID
	}{
		{0, 0, b},  // b and c tie at 50; b has the lower id
		{a, 50, a}, // re-prioritizing a member keeps one entry per thread
		{c, 60, c}, // a strictly higher priority beats lower ids
	}
	for _, s := range steps {
		if s.id != 0 {
			if err := k.SetRealtime(s.id, s.prio); err != nil {
				t.Fatal(err)
			}
		}
		if got := k.pickRT(); got == nil || got.id != s.want {
			t.Fatalf("after SetRealtime(%d, %d): pickRT = %v, want thread %d", s.id, s.prio, got, s.want)
		}
	}
	if len(k.rt) != 3 {
		t.Fatalf("real-time list holds %d threads, want 3", len(k.rt))
	}
}

// TestPickRTAfterSetNormalAndExit: threads leaving the real-time class
// by SetNormal, KillThread or exiting are never picked again.
func TestPickRTAfterSetNormalAndExit(t *testing.T) {
	k := New(Config{CPUs: 1})
	normal := mustSpawn(t, k, "normal", RootCgroup, busyRunner())
	killed := mustSpawn(t, k, "killed", RootCgroup, busyRunner())
	exiting := mustSpawn(t, k, "exiting", RootCgroup, RunnerFunc(func(*RunContext, time.Duration) Decision {
		return Decision{Used: time.Microsecond, Action: ActionExit}
	}))
	for _, id := range []ThreadID{normal, killed, exiting} {
		if err := k.SetRealtime(id, 30); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetNormal(normal); err != nil {
		t.Fatal(err)
	}
	if err := k.KillThread(killed); err != nil {
		t.Fatal(err)
	}
	if got := k.pickRT(); got == nil || got.id != exiting {
		t.Fatalf("pickRT = %v, want the remaining RT thread %d", got, exiting)
	}
	k.RunUntil(10 * time.Millisecond)
	if got := k.pickRT(); got != nil {
		t.Fatalf("pickRT = thread %d after every RT thread left the class", got.id)
	}
	if len(k.rt) != 0 {
		t.Fatalf("real-time list holds %d threads, want 0", len(k.rt))
	}
	if ok, _, _ := k.IsRealtime(normal); ok {
		t.Error("SetNormal left the thread in the real-time class")
	}
}
