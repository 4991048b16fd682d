package reconcile

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lachesis/internal/core"
	"lachesis/internal/telemetry"
)

// crashFS is a MemFS whose process can die: after crash() every write,
// sync, create and rename is silently lost, as if the daemon had been
// killed while its writers were still running. Each operation holds the
// read lock from its check to its effect, so none straddles the crash.
type crashFS struct {
	mem     *MemFS
	mu      sync.RWMutex
	crashed bool
}

func (c *crashFS) crash() {
	c.mu.Lock()
	c.crashed = true
	c.mu.Unlock()
}

func (c *crashFS) ReadFile(name string) ([]byte, error) { return c.mem.ReadFile(name) }

func (c *crashFS) Create(name string) (File, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.crashed {
		return &crashFile{fs: c}, nil
	}
	f, err := c.mem.Create(name)
	return &crashFile{fs: c, f: f}, err
}

func (c *crashFS) Append(name string) (File, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.crashed {
		return &crashFile{fs: c}, nil
	}
	f, err := c.mem.Append(name)
	return &crashFile{fs: c, f: f}, err
}

func (c *crashFS) Rename(oldname, newname string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.crashed {
		return nil
	}
	return c.mem.Rename(oldname, newname)
}

type crashFile struct {
	fs *crashFS
	f  File // nil when opened after the crash
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if f.fs.crashed || f.f == nil {
		return len(p), nil
	}
	return f.f.Write(p)
}

func (f *crashFile) Sync() error {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	if f.fs.crashed || f.f == nil {
		return nil
	}
	return f.f.Sync()
}

func (f *crashFile) Close() error { return nil }

// writerTIDs is how many threads each concurrent writer owns.
const writerTIDs = 16

// runWriters drives 8 concurrent RecordingOS writers over rec, each on
// its own threads and cgroup with strictly increasing values: even steps
// renice one thread through the single-op path, odd steps apply a
// coalescer-style batch (ensure, shares, move, nice). After each call
// returns, done(tid, cgroup, value) reports the values it made durable.
func runWriters(t *testing.T, rec *RecordingOS, steps int, done func(tid int, group string, v int)) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			group := fmt.Sprintf("g%d", w)
			ops := make([]core.ControlOp, 4)
			errs := make([]error, 4)
			for i := 1; i <= steps; i++ {
				tid := 1000 + w*writerTIDs + i%writerTIDs
				if i%2 == 0 {
					if err := rec.SetNice(tid, i); err != nil {
						t.Error(err)
						return
					}
					done(tid, "", i)
					continue
				}
				ops[0] = core.ControlOp{Kind: core.OpEnsureCgroup, Cgroup: group}
				ops[1] = core.ControlOp{Kind: core.OpSetShares, Cgroup: group, Value: i}
				ops[2] = core.ControlOp{Kind: core.OpMoveThread, Thread: tid, Cgroup: group}
				ops[3] = core.ControlOp{Kind: core.OpSetNice, Thread: tid, Value: i}
				rec.ApplyBatch(ops, errs)
				for _, err := range errs {
					if err != nil {
						t.Error(err)
						return
					}
				}
				done(tid, group, i)
			}
		}(w)
	}
	wg.Wait()
}

func spawnWriterThreads(k *fakeKernel) {
	for tid := 1000; tid < 1000+8*writerTIDs; tid++ {
		k.spawn(tid, uint64(tid)*7)
	}
}

// TestGroupCommitReturnedWritesSurviveCrash kills the process while 8
// writers are mid-flight: every write whose call had returned before the
// crash must be in the state reloaded from what was fsynced.
func TestGroupCommitReturnedWritesSurviveCrash(t *testing.T) {
	k := newFakeKernel()
	spawnWriterThreads(k)
	cfs := &crashFS{mem: NewMemFS()}
	state, err := NewDesiredState(NewStore(cfs, nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := RecordOS(k, state, func(tid int) uint64 { return uint64(tid) * 7 }, nil)

	var mu sync.Mutex
	crashed := false
	nices := map[int]int{}     // tid -> last nice whose call returned before the crash
	shares := map[string]int{} // cgroup -> last shares likewise
	placed := map[int]string{} // tid -> cgroup likewise
	var returned atomic.Int64
	runWriters(t, rec, 400, func(tid int, group string, v int) {
		mu.Lock()
		defer mu.Unlock()
		if crashed {
			return
		}
		nices[tid] = v
		if group != "" {
			shares[group] = v
			placed[tid] = group
		}
		// Crash once a good share of the run has returned and every
		// writer has returned a batch, with every writer still going. A
		// fixed count alone let an unlucky interleaving crash before the
		// slowest writer's first batch.
		if returned.Add(1) >= 1200 && len(shares) == 8 {
			cfs.crash()
			crashed = true
		}
	})
	if !crashed {
		t.Fatal("the run ended before the crash point")
	}
	cfs.mem.DropUnsynced()

	reloaded, err := NewDesiredState(NewStore(cfs.mem, nil))
	if err != nil {
		t.Fatal(err)
	}
	for tid, v := range nices {
		// Values only grow, and a write still in flight at the crash may
		// have become durable too, so the reloaded value is at least the
		// last returned one.
		if e, ok := reloaded.Nice(tid); !ok || e.Value < v || e.Start != uint64(tid)*7 {
			t.Errorf("tid %d: reloaded nice %+v (known %v), a returned write set %d", tid, e, ok, v)
		}
	}
	for g, v := range shares {
		if e, ok := reloaded.Shares(g); !ok || e.Value < v {
			t.Errorf("cgroup %s: reloaded shares %+v (known %v), a returned write set %d", g, e, ok, v)
		}
	}
	for tid, g := range placed {
		if e, ok := reloaded.Placement(tid); !ok || e.Cgroup != g {
			t.Errorf("tid %d: reloaded placement %+v (known %v), a returned write placed it in %s", tid, e, ok, g)
		}
	}
	if len(nices) == 0 || len(shares) != 8 {
		t.Fatalf("crash came too early: %d threads, %d cgroups written", len(nices), len(shares))
	}
}

// TestGroupCommitBatchCostsOneSync checks that a coalescer flush of N ops
// through RecordingOS logs N records with a single fsync, and that the
// telemetry counters report that ratio.
func TestGroupCommitBatchCostsOneSync(t *testing.T) {
	k := newFakeKernel()
	spawnWriterThreads(k)
	state, fs := memState(t)
	reg := telemetry.NewRegistry()
	state.SetTelemetry(reg)
	co := core.NewCoalescer(RecordOS(k, state, nil, nil), nil)

	co.Begin()
	for i := 0; i < 8; i++ {
		if err := co.SetNice(1000+i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{co.EnsureCgroup("g"), co.SetShares("g", 512), co.MoveThread(1000, "g")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	syncs := fs.Syncs
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Syncs - syncs; got != 1 {
		t.Fatalf("a flush of 11 ops cost %d fsyncs, want 1", got)
	}
	// Ensure records nothing: 8 nices, the shares and the placement.
	if got := strings.Count(string(fs.FileBytes(LogFile)), "\n"); got != 10 {
		t.Fatalf("log holds %d records, want 10", got)
	}
	if r, s := reg.Counter(MetricLogRecords).Value(), reg.Counter(MetricLogSyncs).Value(); r != 10 || s != 1 {
		t.Fatalf("telemetry: %d records over %d fsyncs, want 10 over 1", r, s)
	}

	// A write that changes nothing in the desired state costs no fsync.
	k.interfereNice(1000, 7)
	syncs = fs.Syncs
	if err := RecordOS(k, state, nil, nil).SetNice(1000, 1); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs != syncs {
		t.Fatal("a same-value write fsynced")
	}
}

// TestGroupCommitRacingCompaction runs the writers against explicit
// checkpoints and the automatic compaction: nothing may be lost, and no
// commit may trip over a truncated log.
func TestGroupCommitRacingCompaction(t *testing.T) {
	k := newFakeKernel()
	spawnWriterThreads(k)
	state, fs := memState(t)
	rec := RecordOS(k, state, nil, nil)

	stop := make(chan struct{})
	var checkpoints sync.WaitGroup
	checkpoints.Add(1)
	go func() {
		defer checkpoints.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := state.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	runWriters(t, rec, 300, func(int, string, int) {})
	close(stop)
	checkpoints.Wait()
	if err := state.Err(); err != nil {
		t.Fatalf("commit racing compaction set Err(): %v", err)
	}

	// Every call returned, so everything must survive a crash now.
	fs.DropUnsynced()
	reloaded, err := NewDesiredState(NewStore(fs, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, got := state.Entries(), reloaded.Entries()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: reloaded %+v, want %+v", i, got[i], want[i])
		}
	}
	if reloaded.Version() != state.Version() {
		t.Fatalf("reloaded version %d, want %d", reloaded.Version(), state.Version())
	}
}
