package oslinux

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"lachesis/internal/core"
)

// The observation side of the Linux backend: the reconciler reads actual
// scheduling state back through /proc and the cgroup filesystem to diff
// it against desired state. All reads go through the optional ReadSystem
// capability so dry runs (whose System deliberately lacks it) never
// observe, and unit tests serve synthetic /proc content.

// ReadSystem is the optional System capability to read host files. The
// real host implements it; DryRunSystem intentionally does not — a dry
// run must not report drift it could never repair.
type ReadSystem interface {
	ReadFile(path string) ([]byte, error)
}

var _ core.Observer = (*Control)(nil)

// Observable reports whether the configured System supports observation
// (and therefore reconciliation).
func (c *Control) Observable() bool {
	_, ok := c.cfg.System.(ReadSystem)
	return ok
}

// errNotObservable surfaces observer calls on a read-less System.
func errNotObservable() error {
	return fmt.Errorf("oslinux: system binding does not support observation")
}

// readFile routes a read through the System's ReadSystem capability with
// retry/classification, so ENOENT on a dead thread's /proc entry (or a
// removed cgroup directory) comes back as core.ErrEntityVanished.
func (c *Control) readFile(op, path string) ([]byte, error) {
	rs, ok := c.cfg.System.(ReadSystem)
	if !ok {
		return nil, errNotObservable()
	}
	var data []byte
	err := c.retry(func() error {
		var e error
		data, e = rs.ReadFile(path)
		return e
	})
	c.record(op, err)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// procStat holds the parsed fields of a thread's stat file this package
// needs.
type procStat struct {
	nice      int
	starttime uint64
}

// parseStat extracts nice (field 19) and starttime (field 22) from stat
// content. The comm field (2) may contain spaces and parentheses, so
// parsing anchors at the LAST ')' — everything after it is
// whitespace-separated fields starting with state (field 3).
func parseStat(data []byte) (procStat, error) {
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("oslinux: malformed stat line (no comm terminator)")
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is field 3 (state); field N lives at index N-3.
	const (
		niceIdx  = 19 - 3
		startIdx = 22 - 3
	)
	if len(fields) <= startIdx {
		return procStat{}, fmt.Errorf("oslinux: truncated stat line (%d fields after comm)", len(fields))
	}
	nice, err := strconv.Atoi(fields[niceIdx])
	if err != nil {
		return procStat{}, fmt.Errorf("oslinux: stat nice field: %w", err)
	}
	start, err := strconv.ParseUint(fields[startIdx], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("oslinux: stat starttime field: %w", err)
	}
	return procStat{nice: nice, starttime: start}, nil
}

// statPath is the thread's own stat file. /proc/<tid>/stat carries the
// same fields, but the kernel sums CPU times over every thread of the
// process to fill it, so its cost grows with the process's thread count;
// the per-thread file under task/ does not.
func statPath(tid int) string { return fmt.Sprintf("/proc/%d/task/%d/stat", tid, tid) }

// ObserveNice implements core.Observer via field 19 of the thread's stat
// file.
func (c *Control) ObserveNice(tid int) (int, error) {
	data, err := c.readFile("observe_nice", statPath(tid))
	if err != nil {
		return 0, err
	}
	st, err := parseStat(data)
	if err != nil {
		return 0, err
	}
	return st.nice, nil
}

// ThreadIdentity implements core.Observer: the starttime field 22 of
// the thread's stat file, in clock ticks since boot. Two different threads can
// share a tid across time (PID reuse after wraparound) but not a
// (tid, starttime) pair, so desired state carrying the starttime
// detects reuse as a vanished entity instead of "drift" on an innocent
// process.
func (c *Control) ThreadIdentity(tid int) (uint64, error) {
	data, err := c.readFile("observe_identity", statPath(tid))
	if err != nil {
		return 0, err
	}
	st, err := parseStat(data)
	if err != nil {
		return 0, err
	}
	return st.starttime, nil
}

// Identity is ThreadIdentity with errors flattened to 0 ("unknown"), the
// shape reconcile.RecordOS wants for stamping entries at apply time.
func (c *Control) Identity(tid int) uint64 {
	id, err := c.ThreadIdentity(tid)
	if err != nil {
		return 0
	}
	return id
}

// ObserveShares implements core.Observer. With cgroup v2 the stored
// cpu.weight is mapped back onto the v1 shares scale with the inverse of
// the write-side mapping: shares = 2 + ((weight-1) * 262142) / 9999. The
// round trip quantizes (off by up to ~27 shares); reconcile.Config's
// SharesTolerance absorbs that.
func (c *Control) ObserveShares(name string) (int, error) {
	dir := filepath.Join(c.cfg.Root, sanitize(name))
	file := "cpu.shares"
	if c.cfg.Version == V2 {
		file = "cpu.weight"
	}
	data, err := c.readFile("observe_shares", filepath.Join(dir, file))
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, fmt.Errorf("oslinux: parse %s: %w", file, err)
	}
	if c.cfg.Version == V2 {
		return 2 + ((v-1)*262142)/9999, nil
	}
	return v, nil
}

// InCgroup implements core.Observer by scanning the group's thread list
// (v1 tasks, v2 cgroup.threads) for tid. A missing group directory is
// vanished, not false — the distinction separates lost-on-exec from
// cgroup-deleted drift.
func (c *Control) InCgroup(tid int, name string) (bool, error) {
	dir := filepath.Join(c.cfg.Root, sanitize(name))
	file := "tasks"
	if c.cfg.Version == V2 {
		file = "cgroup.threads"
	}
	data, err := c.readFile("observe_placement", filepath.Join(dir, file))
	if err != nil {
		return false, err
	}
	want := strconv.Itoa(tid)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == want {
			return true, nil
		}
	}
	return false, nil
}

var _ core.CacheInvalidator = (*Control)(nil)

// InvalidateThread implements core.CacheInvalidator. The Linux backend
// keeps no per-thread value cache (every SetNice reaches setpriority),
// so there is nothing to drop.
func (c *Control) InvalidateThread(tid int) {}

// InvalidateCgroup implements core.CacheInvalidator: the group-exists
// memo is dropped so the next EnsureCgroup re-mkdirs a deleted directory
// (the cgroup-deleted repair path).
func (c *Control) InvalidateCgroup(name string) {
	c.mu.Lock()
	delete(c.groups, name)
	c.mu.Unlock()
}
