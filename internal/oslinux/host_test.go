package oslinux

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"
)

// TestHostPerThreadStatMatchesProcessStat reads a locked non-leader
// thread's nice and start time through the per-thread stat file the
// observer uses and through /proc/<tid>/stat, on the real host. Raising
// a thread's own nice needs no privilege, so the test runs anywhere
// /proc is mounted.
func TestHostPerThreadStatMatchesProcessStat(t *testing.T) {
	if _, err := os.Stat("/proc/self/task"); err != nil {
		t.Skip("no /proc on this host")
	}
	c, err := New(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tid  int
		err  error
		nice int
		id   uint64
		proc procStat
	}
	ch := make(chan result)
	release := make(chan struct{})
	defer close(release)
	var probe func()
	probe = func() {
		// The goroutine exits still locked, so its thread (with the
		// raised nice) is discarded rather than reused.
		runtime.LockOSThread()
		r := result{tid: syscall.Gettid()}
		if r.tid == os.Getpid() {
			// Hold the leader so the next probe lands on another thread.
			go probe()
			<-release
			runtime.UnlockOSThread()
			return
		}
		if r.err = syscall.Setpriority(syscall.PRIO_PROCESS, r.tid, 7); r.err != nil {
			ch <- r
			return
		}
		if r.nice, r.err = c.ObserveNice(r.tid); r.err != nil {
			ch <- r
			return
		}
		if r.id, r.err = c.ThreadIdentity(r.tid); r.err != nil {
			ch <- r
			return
		}
		var data []byte
		if data, r.err = os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.tid)); r.err == nil {
			r.proc, r.err = parseStat(data)
		}
		ch <- r
	}
	go probe()
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.nice != 7 || r.proc.nice != 7 {
		t.Errorf("tid %d nice: per-thread %d, /proc/<tid>/stat %d, want 7", r.tid, r.nice, r.proc.nice)
	}
	if r.id == 0 || r.id != r.proc.starttime {
		t.Errorf("tid %d start time: per-thread %d, /proc/<tid>/stat %d", r.tid, r.id, r.proc.starttime)
	}
}
