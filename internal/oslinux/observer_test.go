package oslinux

import (
	"fmt"
	"syscall"
	"testing"

	"lachesis/internal/core"
)

// fakeProcSystem extends fakeSystem with a served file tree, modeling
// /proc and the cgroup filesystem for the observer.
type fakeProcSystem struct {
	*fakeSystem
	files map[string]string
}

var (
	_ System     = (*fakeProcSystem)(nil)
	_ ReadSystem = (*fakeProcSystem)(nil)
)

func newFakeProcSystem() *fakeProcSystem {
	return &fakeProcSystem{fakeSystem: newFakeSystem(), files: make(map[string]string)}
}

func (f *fakeProcSystem) ReadFile(path string) ([]byte, error) {
	if err := f.pop("ReadFile"); err != nil {
		return nil, err
	}
	data, ok := f.files[path]
	if !ok {
		return nil, syscall.ENOENT
	}
	return []byte(data), nil
}

// stat42 is the per-thread stat file the observer reads for tid 42.
const stat42 = "/proc/42/task/42/stat"

// statLine builds a stat line whose comm contains both
// spaces and a ") (" sequence — the pathological case the last-')'
// anchor exists for.
func statLine(tid, nice int, starttime uint64) string {
	return fmt.Sprintf("%d (we) ird (name) S 1 %d %d 0 -1 4194304 100 0 0 0 5 3 0 0 20 %d 1 0 %d 1000000 200 18446744073709551615",
		tid, tid, tid, nice, starttime)
}

func TestObserverParsesProcStat(t *testing.T) {
	sys := newFakeProcSystem()
	c := newControl(t, sys, V1)
	if !c.Observable() {
		t.Fatal("ReadSystem-capable System must be observable")
	}
	sys.files[stat42] = statLine(42, -7, 12345)

	if n, err := c.ObserveNice(42); err != nil || n != -7 {
		t.Fatalf("ObserveNice = %d, %v", n, err)
	}
	if id, err := c.ThreadIdentity(42); err != nil || id != 12345 {
		t.Fatalf("ThreadIdentity = %d, %v", id, err)
	}

	// A recycled tid carries a different starttime: the same read now
	// yields a different identity, which is how the reconciler tells a
	// reused pid from drift on the thread it once managed.
	sys.files[stat42] = statLine(42, 0, 99999)
	if id, _ := c.ThreadIdentity(42); id != 99999 {
		t.Fatalf("recycled tid identity = %d, want 99999", id)
	}

	// A dead thread's /proc entry is gone: ENOENT classifies as vanished.
	delete(sys.files, stat42)
	if _, err := c.ObserveNice(42); !core.IsVanished(err) {
		t.Fatalf("ObserveNice on missing /proc entry: %v", err)
	}
	if _, err := c.ThreadIdentity(42); !core.IsVanished(err) {
		t.Fatalf("ThreadIdentity on missing /proc entry: %v", err)
	}
}

func TestObserverRejectsMalformedStat(t *testing.T) {
	sys := newFakeProcSystem()
	c := newControl(t, sys, V1)
	for name, content := range map[string]string{
		"no comm":   "42 comm S 1 2 3",
		"truncated": "42 (w) S 1 2 3",
		"bad nice":  "42 (w) S 1 42 42 0 -1 4194304 100 0 0 0 5 3 0 0 20 oops 1 0 7 1000000 200 1",
	} {
		sys.files[stat42] = content
		if _, err := c.ObserveNice(42); err == nil {
			t.Fatalf("%s: malformed stat accepted", name)
		}
	}
}

func TestObserveSharesV1AndV2(t *testing.T) {
	sysV1 := newFakeProcSystem()
	c1 := newControl(t, sysV1, V1)
	sysV1.files["/sys/fs/cgroup/cpu/lachesis/q1/cpu.shares"] = "2048\n"
	if s, err := c1.ObserveShares("q1"); err != nil || s != 2048 {
		t.Fatalf("v1 ObserveShares = %d, %v", s, err)
	}

	// v2 round trip: the write-side shares→weight mapping composed with
	// the read-side inverse must land within the quantization error.
	sysV2 := newFakeProcSystem()
	c2 := newControl(t, sysV2, V2)
	for _, shares := range []int{2, 512, 1024, 2048, 262144} {
		if err := c2.SetShares("q1", shares); err != nil {
			t.Fatal(err)
		}
		weight := sysV2.writes["/sys/fs/cgroup/cpu/lachesis/q1/cpu.weight"]
		sysV2.files["/sys/fs/cgroup/cpu/lachesis/q1/cpu.weight"] = weight + "\n"
		got, err := c2.ObserveShares("q1")
		if err != nil {
			t.Fatal(err)
		}
		if diff := got - shares; diff < -27 || diff > 27 {
			t.Fatalf("v2 shares %d round-tripped to %d (weight %s)", shares, got, weight)
		}
	}

	// A deleted group directory observes vanished.
	if _, err := c1.ObserveShares("gone"); !core.IsVanished(err) {
		t.Fatalf("ObserveShares on missing dir: %v", err)
	}
}

func TestInCgroupScansThreadList(t *testing.T) {
	sys := newFakeProcSystem()
	c := newControl(t, sys, V1)
	sys.files["/sys/fs/cgroup/cpu/lachesis/q1/tasks"] = "7\n42\n108\n"
	if in, err := c.InCgroup(42, "q1"); err != nil || !in {
		t.Fatalf("InCgroup(42) = %v, %v", in, err)
	}
	if in, err := c.InCgroup(4, "q1"); err != nil || in {
		t.Fatalf("InCgroup(4) = %v, %v (4 must not prefix-match 42)", in, err)
	}
	if _, err := c.InCgroup(42, "gone"); !core.IsVanished(err) {
		t.Fatalf("InCgroup on missing group: %v", err)
	}

	sysV2 := newFakeProcSystem()
	c2 := newControl(t, sysV2, V2)
	sysV2.files["/sys/fs/cgroup/cpu/lachesis/q1/cgroup.threads"] = "42\n"
	if in, err := c2.InCgroup(42, "q1"); err != nil || !in {
		t.Fatalf("v2 InCgroup = %v, %v", in, err)
	}
}

func TestInvalidateCgroupForcesRemkdir(t *testing.T) {
	sys := newFakeProcSystem()
	c := newControl(t, sys, V1)
	if err := c.EnsureCgroup("q1"); err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCgroup("q1"); err != nil {
		t.Fatal(err)
	}
	if len(sys.dirs) != 1 {
		t.Fatalf("memoized EnsureCgroup issued %d mkdirs", len(sys.dirs))
	}
	// External rmdir: invalidation drops the memo so repair re-mkdirs.
	c.InvalidateCgroup("q1")
	c.InvalidateThread(42) // no per-thread cache; must be a safe no-op
	if err := c.EnsureCgroup("q1"); err != nil {
		t.Fatal(err)
	}
	if len(sys.dirs) != 2 {
		t.Fatalf("post-invalidation EnsureCgroup issued %d mkdirs, want 2", len(sys.dirs))
	}
}

func TestObserverRequiresReadSystem(t *testing.T) {
	c := newControl(t, newFakeSystem(), V1)
	if c.Observable() {
		t.Fatal("plain System must not be observable")
	}
	if _, err := c.ObserveNice(42); err == nil {
		t.Fatal("ObserveNice without ReadSystem must error")
	}
	// DryRunSystem must stay read-less: dry runs cannot repair drift.
	if _, ok := interface{}(DryRunSystem{}).(ReadSystem); ok {
		t.Fatal("DryRunSystem must not implement ReadSystem")
	}
}

func TestObserveRetriesTransientReads(t *testing.T) {
	sys := newFakeProcSystem()
	c := newControl(t, sys, V1)
	sys.files[stat42] = statLine(42, 3, 7)
	sys.failOn["ReadFile"] = []error{syscall.EAGAIN, syscall.EINTR}
	if n, err := c.ObserveNice(42); err != nil || n != 3 {
		t.Fatalf("ObserveNice after transient errors = %d, %v", n, err)
	}
}
