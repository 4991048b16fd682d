package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// requireHost skips tests that need the real kernel on hosts where the
// control workloads' pre-flight check fails.
func requireHost(t *testing.T) {
	t.Helper()
	if _, err := preflight(); err != nil {
		t.Skip("control workloads cannot run here:", err)
	}
}

// ownSubtrees lists the cgroup subtrees this process still owns.
func ownSubtrees(t *testing.T) []string {
	t.Helper()
	mount, err := findCPUv1Mount()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := filepath.Glob(filepath.Join(mount, fmt.Sprintf("%s%d-*", subtreePrefix, os.Getpid())))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func niceOf(t *testing.T, tid int) int {
	t.Helper()
	n, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid)
	if err != nil {
		t.Fatalf("getpriority tid %d: %v", tid, err)
	}
	return 20 - n // the raw syscall returns 20 - nice
}

// TestHostRestoreUndoesEverything checks that a host's restore step puts
// each thread back at nice 0 in its original cgroup and removes the
// subtree, before the threads end.
func TestHostRestoreUndoesEverything(t *testing.T) {
	requireHost(t)
	h, err := newHost(4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.teardown()
	group := filepath.Join(h.cgroupRoot(), "g")
	if err := os.MkdirAll(group, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, tid := range h.tids {
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, 5+i); err != nil {
			t.Fatal(err)
		}
		if err := writeInt(filepath.Join(group, "tasks"), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.restore(); err != nil {
		t.Fatal(err)
	}
	own, err := ownCPUCgroup()
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range h.tids {
		if n := niceOf(t, tid); n != 0 {
			t.Errorf("tid %d left at nice %d", tid, n)
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/cgroup", tid))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), ":cpu:"+own+"\n") && !strings.Contains(string(b), ",cpu:"+own+"\n") &&
			!strings.Contains(string(b), ":cpu,cpuacct:"+own+"\n") {
			t.Errorf("tid %d not back in %s:\n%s", tid, own, b)
		}
	}
	if _, err := os.Stat(h.subtree); !os.IsNotExist(err) {
		t.Errorf("subtree %s still exists (stat err %v)", h.subtree, err)
	}
}

// TestControlTeardownLeavesNothingBehind builds a full control-churn
// world, runs cycles, the adversary and reconciler passes, tears it down
// and checks that no thread, cgroup or state file is left.
func TestControlTeardownLeavesNothingBehind(t *testing.T) {
	requireHost(t)
	w, err := buildControl(7, true, false)
	if err != nil {
		t.Fatal(err)
	}
	tids := append([]int(nil), w.h.tids...)
	stateDir := w.stateDir
	ph := w.measure(context.Background(), time.Time{}, 2*reconcileEvery)
	if len(ph.problems) > 0 {
		t.Errorf("cycles failed: %v", ph.problems)
	}
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	if left := ownSubtrees(t); len(left) > 0 {
		t.Errorf("cgroup subtrees left behind: %v", left)
	}
	if _, err := os.Stat(stateDir); !os.IsNotExist(err) {
		t.Errorf("state dir %s left behind (stat err %v)", stateDir, err)
	}
	for _, tid := range tids {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", tid)); err == nil {
			t.Errorf("thread %d still running", tid)
		}
	}
}

// TestInterruptedRunTearsDown cancels a control run mid-measurement, as
// SIGINT does, and checks that it still tears everything down.
func TestInterruptedRunTearsDown(t *testing.T) {
	requireHost(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(3*time.Second, cancel)
	defer cancel()
	if _, err := runControl(ctx, runConfig{seed: 3, seconds: time.Minute}, false); err != nil {
		t.Fatal(err)
	}
	if left := ownSubtrees(t); len(left) > 0 {
		t.Errorf("cgroup subtrees left behind: %v", left)
	}
}

// TestMain lets the test binary serve as the helper process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == helperArg {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil {
			os.Exit(2)
		}
		runHelper(n)
	}
	os.Exit(m.Run())
}
