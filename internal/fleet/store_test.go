package fleet

import (
	"encoding/json"
	"errors"
	"testing"

	"lachesis/internal/guard"
	"lachesis/internal/reconcile"
)

func TestStoreRegistryRoundTrip(t *testing.T) {
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	in := []AgentRecord{
		{ID: "a", Addr: "a:1", Generation: 2, State: LeaseActive},
		{ID: "b", Addr: "b:1", Generation: 1, State: LeaseEvicted},
	}
	if err := s.SaveRegistry(in); err != nil {
		t.Fatalf("SaveRegistry: %v", err)
	}
	if fs.Syncs == 0 {
		t.Error("SaveRegistry must sync before rename")
	}
	if len(fs.FileBytes(registryTmpFile)) != 0 {
		t.Error("tmp file must be renamed away")
	}
	out, ok, err := s.LoadRegistry()
	if err != nil || !ok {
		t.Fatalf("LoadRegistry = ok=%v err=%v", ok, err)
	}
	if len(out) != 2 || out[0].ID != "a" || out[1].State != LeaseEvicted {
		t.Fatalf("LoadRegistry = %+v", out)
	}
}

func TestStoreRolloutRoundTrip(t *testing.T) {
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	in := RolloutState{
		Active: true, Version: "v7", Payload: []byte(`{"p":1}`),
		StablePayload: []byte(`{"p":0}`), Phase: PhaseObserving, Wave: 1, Ticks: 3,
		Cohorts: [][]string{{"a"}, {"b", "c"}},
		Agents: map[string]*AgentRollout{
			"a": {Wave: 0, Pushed: true, Baseline: guard.SLOSample{LatencyP95: 1, OK: true}},
			"b": {Wave: 1},
		},
	}
	if err := s.SaveRollout(in); err != nil {
		t.Fatalf("SaveRollout: %v", err)
	}
	out, ok, err := s.LoadRollout()
	if err != nil || !ok {
		t.Fatalf("LoadRollout = ok=%v err=%v", ok, err)
	}
	if !out.Active || out.Version != "v7" || out.Phase != PhaseObserving || out.Wave != 1 {
		t.Fatalf("LoadRollout = %+v", out)
	}
	if a := out.Agents["a"]; a == nil || !a.Pushed || !a.Baseline.OK {
		t.Fatalf("agent a = %+v, want pushed with baseline", out.Agents["a"])
	}
	if string(out.Payload) != `{"p":1}` || string(out.StablePayload) != `{"p":0}` {
		t.Fatal("payloads must round-trip")
	}
}

func TestStoreMissingAndCorruptDegradeGracefully(t *testing.T) {
	fs := reconcile.NewMemFS()
	warned := 0
	s := NewStore(fs, func(string, ...any) { warned++ })

	if _, ok, err := s.LoadRegistry(); ok || err != nil {
		t.Fatalf("missing registry = ok=%v err=%v, want cold start", ok, err)
	}
	if _, ok, err := s.LoadRollout(); ok || err != nil {
		t.Fatalf("missing rollout = ok=%v err=%v, want idle start", ok, err)
	}

	fs.SetFile(RegistryFile, []byte("garbage"))
	fs.SetFile(RolloutFile, []byte(`{"format":99}`))
	if _, ok, err := s.LoadRegistry(); ok || err != nil {
		t.Fatalf("corrupt registry = ok=%v err=%v, want cold start", ok, err)
	}
	if _, ok, err := s.LoadRollout(); ok || err != nil {
		t.Fatalf("wrong-format rollout = ok=%v err=%v, want idle start", ok, err)
	}
	if warned != 2 {
		t.Fatalf("warned %d times, want 2", warned)
	}
}

func TestStoreLeaseRoundTrip(t *testing.T) {
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	in := LeaseInfo{Epoch: 4, Holder: "coord-a", RenewedSeq: 17, TTLMs: 3000, Released: true}
	if err := s.SaveLease(in); err != nil {
		t.Fatalf("SaveLease: %v", err)
	}
	if fs.Syncs == 0 {
		t.Error("SaveLease must sync before rename")
	}
	if len(fs.FileBytes(leaseTmpFile)) != 0 {
		t.Error("tmp file must be renamed away")
	}
	out, ok, err := s.LoadLease()
	if err != nil || !ok {
		t.Fatalf("LoadLease = ok=%v err=%v", ok, err)
	}
	if out != in {
		t.Fatalf("LoadLease = %+v, want %+v", out, in)
	}
}

func TestStoreTruncatedTailDegradesToColdStart(t *testing.T) {
	// A crash mid-write (no atomic rename available, torn page, short
	// copy during disaster recovery) leaves a prefix of valid JSON. Every
	// loader must treat it as corruption — warn and cold-start — never
	// error out or half-parse.
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	if err := s.SaveRegistry([]AgentRecord{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}}); err != nil {
		t.Fatalf("SaveRegistry: %v", err)
	}
	if err := s.SaveRollout(RolloutState{Active: true, Version: "v2"}); err != nil {
		t.Fatalf("SaveRollout: %v", err)
	}
	if err := s.SaveLease(LeaseInfo{Epoch: 9, Holder: "coord-a"}); err != nil {
		t.Fatalf("SaveLease: %v", err)
	}

	for _, name := range []string{RegistryFile, RolloutFile, LeaseFile} {
		whole := fs.FileBytes(name)
		if len(whole) == 0 {
			t.Fatalf("%s: no bytes persisted", name)
		}
		fs.SetFile(name, whole[:len(whole)/2])
	}

	warned := 0
	s = NewStore(fs, func(string, ...any) { warned++ })
	if _, ok, err := s.LoadRegistry(); ok || err != nil {
		t.Fatalf("truncated registry = ok=%v err=%v, want cold start", ok, err)
	}
	if _, ok, err := s.LoadRollout(); ok || err != nil {
		t.Fatalf("truncated rollout = ok=%v err=%v, want cold start", ok, err)
	}
	if _, ok, err := s.LoadLease(); ok || err != nil {
		t.Fatalf("truncated lease = ok=%v err=%v, want cold start", ok, err)
	}
	if warned != 3 {
		t.Fatalf("warned %d times, want 3 (one per truncated file)", warned)
	}
}

// faultFS is a MemFS whose writes or renames fail on demand. A failing
// rename still moves the file first: the error a filesystem may report
// after the rename took effect.
type faultFS struct {
	*reconcile.MemFS
	failWrite, failRename bool
}

func (f *faultFS) Create(name string) (reconcile.File, error) {
	file, err := f.MemFS.Create(name)
	if err != nil || !f.failWrite {
		return file, err
	}
	return failingFile{file}, nil
}

func (f *faultFS) Rename(oldname, newname string) error {
	if err := f.MemFS.Rename(oldname, newname); err != nil || !f.failRename {
		return err
	}
	return errors.New("injected rename failure")
}

type failingFile struct{ reconcile.File }

func (failingFile) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

func TestStoreSkipsIdenticalSave(t *testing.T) {
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	agents := []AgentRecord{{ID: "a", Addr: "a:1", State: LeaseActive}}
	if err := s.SaveRegistry(agents); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRollout(RolloutState{Version: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLease(LeaseInfo{Epoch: 3, Holder: "a"}); err != nil {
		t.Fatal(err)
	}
	syncs := fs.Syncs
	if err := s.SaveRegistry([]AgentRecord{{ID: "a", Addr: "a:1", State: LeaseActive}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRollout(RolloutState{Version: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLease(LeaseInfo{Epoch: 3, Holder: "a"}); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs != syncs {
		t.Fatalf("identical re-saves issued %d syncs, want 0", fs.Syncs-syncs)
	}
	if err := s.SaveLease(LeaseInfo{Epoch: 4, Holder: "a"}); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs != syncs+1 {
		t.Fatalf("a changed save issued %d syncs, want 1", fs.Syncs-syncs)
	}
}

func TestStoreChangedSaveAfterSkipSurvivesCrash(t *testing.T) {
	fs := reconcile.NewMemFS()
	s := NewStore(fs, nil)
	for _, v := range []string{"v1", "v1", "v2"} {
		if err := s.SaveRollout(RolloutState{Active: true, Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	fs.DropUnsynced()
	got, ok, err := NewStore(fs, nil).LoadRollout()
	if err != nil || !ok || got.Version != "v2" {
		t.Fatalf("after crash LoadRollout = %+v ok=%v err=%v, want v2", got, ok, err)
	}
}

func TestStoreRetriesFailedSaveInFull(t *testing.T) {
	fs := &faultFS{MemFS: reconcile.NewMemFS()}
	s := NewStore(fs, nil)
	if err := s.SaveLease(LeaseInfo{Epoch: 1}); err != nil {
		t.Fatal(err)
	}

	// A failed write leaves the installed file alone; the same save
	// afterwards runs the whole ritual.
	fs.failWrite = true
	if err := s.SaveLease(LeaseInfo{Epoch: 2}); err == nil {
		t.Fatal("save over a failing write succeeded")
	}
	fs.failWrite = false
	syncs := fs.Syncs
	if err := s.SaveLease(LeaseInfo{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs != syncs+1 {
		t.Fatalf("retried save issued %d syncs, want 1", fs.Syncs-syncs)
	}

	// A rename that took effect but reported an error leaves epoch 3 on
	// disk: re-saving epoch 2 must not be skipped as already installed.
	fs.failRename = true
	if err := s.SaveLease(LeaseInfo{Epoch: 3}); err == nil {
		t.Fatal("save over a failing rename succeeded")
	}
	fs.failRename = false
	if err := s.SaveLease(LeaseInfo{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	fs.DropUnsynced()
	got, ok, err := NewStore(fs, nil).LoadLease()
	if err != nil || !ok || got.Epoch != 2 {
		t.Fatalf("LoadLease = %+v ok=%v err=%v, want epoch 2", got, ok, err)
	}
}

func TestStoreLoadsIndentedFiles(t *testing.T) {
	// State dirs written before files were compact hold indented JSON.
	fs := reconcile.NewMemFS()
	indent := func(doc any) []byte {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	fs.SetFile(RegistryFile, indent(registryDoc{Format: storeFormat, Agents: []AgentRecord{{ID: "a", Addr: "a:1"}}}))
	fs.SetFile(RolloutFile, indent(rolloutDoc{Format: storeFormat, Rollout: RolloutState{Active: true, Version: "v3"}}))
	fs.SetFile(LeaseFile, indent(leaseDoc{Format: storeFormat, Lease: LeaseInfo{Epoch: 5, Holder: "b"}}))
	s := NewStore(fs, nil)
	if agents, ok, err := s.LoadRegistry(); err != nil || !ok || len(agents) != 1 || agents[0].ID != "a" {
		t.Fatalf("LoadRegistry = %+v ok=%v err=%v", agents, ok, err)
	}
	if r, ok, err := s.LoadRollout(); err != nil || !ok || r.Version != "v3" {
		t.Fatalf("LoadRollout = %+v ok=%v err=%v", r, ok, err)
	}
	if l, ok, err := s.LoadLease(); err != nil || !ok || l.Epoch != 5 {
		t.Fatalf("LoadLease = %+v ok=%v err=%v", l, ok, err)
	}
}
