package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The real-kernel host of the control workloads. A pre-flight check
// requires root and a writable cgroup v1 cpu controller; it never falls
// back to a fake or dry-run backend. Every managed entity gets its own
// benchmark-owned OS thread that blocks forever and so never becomes
// runnable. The threads live in helper processes of threadsPerHelper
// threads each, as operator threads live in a few SPE worker processes:
// reading /proc/<tid>/stat, which oslinux does for every recorded nice,
// costs time in proportion to the threads of the tid's process. Every
// cgroup lives under one benchmark-owned subtree. Teardown restores nice
// 0, moves the threads back to the cgroup they started in, removes the
// subtree and ends the helpers.

// threadsPerHelper is how many idle threads one helper process holds.
const threadsPerHelper = 64

// helperArg is the first argument that makes the benchmark binary run as
// a helper process (see runHelper).
const helperArg = "idle-threads"

// subtreePrefix names every cgroup directory the benchmark creates, so a
// later run can recognize and remove what a killed run left behind.
const subtreePrefix = "lachesis-perfbench-"

// hostSeq numbers the hosts of one process (set-up runs several).
var hostSeq atomic.Int64

// host owns the threads and the cgroup subtree of one control world.
type host struct {
	subtree   string // benchmark-owned cgroup directory
	origTasks string // tasks file of the cgroup the threads started in
	tids      []int

	helpers []*helper
	once    sync.Once
	err     error
}

// helper is one running helper process.
type helper struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// newHost runs the pre-flight check and starts n idle threads.
func newHost(n int) (*host, error) {
	mount, err := preflight()
	if err != nil {
		return nil, err
	}
	removeStale(mount)
	own, err := ownCPUCgroup()
	if err != nil {
		return nil, err
	}
	h := &host{
		subtree:   filepath.Join(mount, fmt.Sprintf("%s%d-%d", subtreePrefix, os.Getpid(), hostSeq.Add(1))),
		origTasks: filepath.Join(mount, own, "tasks"),
	}
	if err := os.Mkdir(h.subtree, 0o755); err != nil {
		return nil, fmt.Errorf("create cgroup subtree: %w", err)
	}
	for len(h.tids) < n {
		if err := h.spawn(min(threadsPerHelper, n-len(h.tids))); err != nil {
			return nil, errors.Join(err, h.teardown())
		}
	}
	return h, nil
}

// cgroupRoot is the directory oslinux creates the workload's cgroups in.
// oslinux restores threads to its parent, which is still the subtree.
func (h *host) cgroupRoot() string { return filepath.Join(h.subtree, "groups") }

// spawn starts a helper process holding n idle threads and records their
// thread ids.
func (h *host) spawn(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, helperArg, strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start helper: %w", err)
	}
	h.helpers = append(h.helpers, &helper{cmd: cmd, stdin: stdin})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return fmt.Errorf("read helper thread ids: %w", err)
	}
	for _, f := range strings.Fields(line) {
		tid, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("helper thread id %q: %w", f, err)
		}
		h.tids = append(h.tids, tid)
	}
	return nil
}

// runHelper is the helper process: it starts n goroutines, each locked
// to its own OS thread and parked, prints their thread ids on one line
// and exits when its standard input closes, which also happens when the
// benchmark dies. It ignores SIGINT and SIGTERM so that an interrupt
// reaches the benchmark's teardown while the threads still exist.
func runHelper(n int) {
	signal.Ignore(os.Interrupt, syscall.SIGTERM)
	tids := make(chan int)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			tids <- syscall.Gettid()
			select {}
		}()
	}
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(<-tids)
	}
	fmt.Println(strings.Join(out, " "))
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// teardown restores every thread, removes the subtree and ends the
// helpers, waiting for each to exit. It is safe to call more than once
// and from deferred error paths.
func (h *host) teardown() error {
	h.once.Do(func() {
		errs := []error{h.restore()}
		for _, hp := range h.helpers {
			errs = append(errs, hp.stdin.Close(), hp.cmd.Wait())
		}
		h.err = errors.Join(errs...)
	})
	return h.err
}

// helperCPU is the user+system CPU time the helper processes used over
// their lives; it is complete only after teardown has waited for them.
func (h *host) helperCPU() time.Duration {
	var d time.Duration
	for _, hp := range h.helpers {
		if st := hp.cmd.ProcessState; st != nil {
			d += st.UserTime() + st.SystemTime()
		}
	}
	return d
}

// restore returns every thread to nice 0 and to the cgroup it started in,
// then removes the subtree.
func (h *host) restore() error {
	var errs []error
	for _, tid := range h.tids {
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, 0); err != nil {
			errs = append(errs, fmt.Errorf("restore nice of tid %d: %w", tid, err))
		}
		if err := writeInt(h.origTasks, tid); err != nil {
			errs = append(errs, fmt.Errorf("move tid %d back: %w", tid, err))
		}
	}
	if err := removeTree(h.subtree); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// preflight checks for root and a writable cgroup v1 cpu controller and
// returns the controller's mount point.
func preflight() (string, error) {
	if os.Geteuid() != 0 {
		return "", errors.New("control workloads need root: they renice threads and write cgroupfs on this host")
	}
	mount, err := findCPUv1Mount()
	if err != nil {
		if hasCgroup2() {
			return "", errors.New("control workloads need the cgroup v1 cpu controller; this host mounts only cgroup v2, " +
				"whose thread-level placement needs a threaded subtree the benchmark does not set up")
		}
		return "", err
	}
	probe := filepath.Join(mount, fmt.Sprintf("%s%d-probe", subtreePrefix, os.Getpid()))
	if err := os.Mkdir(probe, 0o755); err != nil {
		return "", fmt.Errorf("cpu controller at %s is not writable: %w", mount, err)
	}
	werr := os.WriteFile(filepath.Join(probe, "cpu.shares"), []byte("512"), 0)
	rerr := os.Remove(probe)
	if werr != nil {
		return "", fmt.Errorf("cpu.shares under %s is not writable: %w", mount, werr)
	}
	if rerr != nil {
		return "", fmt.Errorf("remove probe cgroup: %w", rerr)
	}
	return mount, nil
}

// findCPUv1Mount returns the mount point of the cgroup v1 hierarchy that
// carries the cpu controller.
func findCPUv1Mount() (string, error) {
	mounts, err := readMountinfo()
	if err != nil {
		return "", err
	}
	for _, m := range mounts {
		if m.fstype != "cgroup" {
			continue
		}
		for _, opt := range strings.Split(m.super, ",") {
			if opt == "cpu" {
				return m.point, nil
			}
		}
	}
	return "", errors.New("no cgroup v1 cpu controller is mounted")
}

func hasCgroup2() bool {
	mounts, err := readMountinfo()
	if err != nil {
		return false
	}
	for _, m := range mounts {
		if m.fstype == "cgroup2" {
			return true
		}
	}
	return false
}

type mountEntry struct{ point, fstype, super string }

// readMountinfo parses /proc/self/mountinfo: field 5 is the mount point;
// after the " - " separator come the filesystem type, the source and the
// superblock options.
func readMountinfo() ([]mountEntry, error) {
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []mountEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		if !ok {
			continue
		}
		a, b := strings.Fields(pre), strings.Fields(post)
		if len(a) < 5 || len(b) < 3 {
			continue
		}
		out = append(out, mountEntry{point: a[4], fstype: b[0], super: b[2]})
	}
	return out, sc.Err()
}

// ownCPUCgroup returns this process's path in the cpu hierarchy, from
// /proc/self/cgroup lines "id:controllers:path".
func ownCPUCgroup() (string, error) {
	b, err := os.ReadFile("/proc/self/cgroup")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		parts := strings.SplitN(line, ":", 3)
		if len(parts) != 3 {
			continue
		}
		for _, c := range strings.Split(parts[1], ",") {
			if c == "cpu" {
				return parts[2], nil
			}
		}
	}
	return "", errors.New("this process is in no cpu cgroup")
}

// removeStale removes subtrees left by benchmark processes that no longer
// exist (a run killed before its teardown). Their threads are gone, so
// the directories are empty.
func removeStale(mount string) {
	dirs, _ := filepath.Glob(filepath.Join(mount, subtreePrefix+"*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.SplitN(strings.TrimPrefix(filepath.Base(d), subtreePrefix), "-", 2)[0])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
			continue
		}
		if err := removeTree(d); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stale cgroup subtree:", err)
		}
	}
}

// removeTree removes a cgroup directory and every cgroup below it,
// children first. Cgroup control files vanish with their directory.
func removeTree(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("list %s: %w", dir, err)
	}
	var errs []error
	for _, e := range entries {
		if e.IsDir() {
			errs = append(errs, removeTree(filepath.Join(dir, e.Name())))
		}
	}
	if err := os.Remove(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, fmt.Errorf("remove cgroup %s: %w", dir, err))
	}
	return errors.Join(errs...)
}

// writeInt writes a decimal integer to a cgroup control file.
func writeInt(path string, v int) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte(strconv.Itoa(v)))
	cerr := f.Close()
	return errors.Join(werr, cerr)
}
