package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"lachesis/internal/reconcile"
)

// Fleet state file names inside the store FS. They sit beside the
// reconcile snapshot when the coordinator shares a state directory.
const (
	// RegistryFile holds the agent registry.
	RegistryFile    = "fleet-registry.json"
	registryTmpFile = RegistryFile + ".tmp"
	// RolloutFile holds the fleet rollout state machine.
	RolloutFile    = "fleet-rollout.json"
	rolloutTmpFile = RolloutFile + ".tmp"
	// LeaseFile holds the coordinator's leader-lease view (highest epoch
	// held or observed), keeping fencing epochs monotonic across restarts.
	LeaseFile    = "fleet-lease.json"
	leaseTmpFile = LeaseFile + ".tmp"
)

// storeFormat versions the fleet state files.
const storeFormat = 1

// registryDoc is the on-disk shape of RegistryFile.
type registryDoc struct {
	Format int           `json:"format"`
	Agents []AgentRecord `json:"agents"`
}

// rolloutDoc is the on-disk shape of RolloutFile.
type rolloutDoc struct {
	Format  int          `json:"format"`
	Rollout RolloutState `json:"rollout"`
}

// leaseDoc is the on-disk shape of LeaseFile.
type leaseDoc struct {
	Format int       `json:"format"`
	Lease  LeaseInfo `json:"lease"`
}

// Store persists fleet state (registry, rollout, lease) through the
// same FS abstraction as internal/reconcile, with the same durability
// ritual: write a temp file, sync, rename into place. Files are compact
// JSON; loading accepts any JSON layout, so state dirs written indented
// still load. A save whose bytes equal the ones the Store last installed
// in that file returns at once: that earlier save finished the whole
// ritual, so the file on disk is already durable. Loading tolerates a
// corrupt file by reporting ok=false — a damaged state file degrades the
// warm restart to a cold one, it never prevents startup.
type Store struct {
	fs    reconcile.FS
	warnf func(format string, args ...any)

	registry, rollout, lease storeFile
}

// storeFile is one state file and the bytes this Store last installed
// in it. mu serializes saves of the file (the registry, coordinator,
// lease manager and follower save from their own goroutines).
type storeFile struct {
	mu        sync.Mutex
	tmp, name string
	installed []byte // nil: unknown, the next save writes
}

// NewStore creates a fleet store over fs. warnf receives corruption
// warnings during loads (nil discards them).
func NewStore(fs reconcile.FS, warnf func(format string, args ...any)) *Store {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	return &Store{fs: fs, warnf: warnf,
		registry: storeFile{tmp: registryTmpFile, name: RegistryFile},
		rollout:  storeFile{tmp: rolloutTmpFile, name: RolloutFile},
		lease:    storeFile{tmp: leaseTmpFile, name: LeaseFile},
	}
}

// SaveRegistry atomically persists the agent registry.
func (s *Store) SaveRegistry(agents []AgentRecord) error {
	return s.save(&s.registry, registryDoc{Format: storeFormat, Agents: agents})
}

// LoadRegistry reads the persisted registry. ok is false when the file
// is missing or unreadable (warned, not fatal).
func (s *Store) LoadRegistry() ([]AgentRecord, bool, error) {
	raw, err := s.fs.ReadFile(RegistryFile)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("read fleet registry: %w", err)
	}
	var doc registryDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Format != storeFormat {
		s.warnf("fleet: registry file corrupt, starting cold: %v", err)
		return nil, false, nil
	}
	return doc.Agents, true, nil
}

// SaveRollout atomically persists the rollout state machine. The
// coordinator calls it on every transition, so a crash resumes the
// rollout at the phase it had reached.
func (s *Store) SaveRollout(r RolloutState) error {
	return s.save(&s.rollout, rolloutDoc{Format: storeFormat, Rollout: r})
}

// LoadRollout reads the persisted rollout state. ok is false when the
// file is missing or unreadable (warned, not fatal).
func (s *Store) LoadRollout() (RolloutState, bool, error) {
	raw, err := s.fs.ReadFile(RolloutFile)
	if os.IsNotExist(err) {
		return RolloutState{}, false, nil
	}
	if err != nil {
		return RolloutState{}, false, fmt.Errorf("read fleet rollout: %w", err)
	}
	var doc rolloutDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Format != storeFormat {
		s.warnf("fleet: rollout file corrupt, starting idle: %v", err)
		return RolloutState{}, false, nil
	}
	return doc.Rollout, true, nil
}

// SaveLease atomically persists the leader-lease view (same fsync'd
// rename ritual as the registry). The lease manager calls it on every
// acquisition and renewal, so a restarted coordinator can never reuse
// an epoch it already burned.
func (s *Store) SaveLease(info LeaseInfo) error {
	return s.save(&s.lease, leaseDoc{Format: storeFormat, Lease: info})
}

// LoadLease reads the persisted lease view. ok is false when the file
// is missing or unreadable (warned, not fatal — a lost lease file only
// costs epoch headroom, fencing stays safe because acquisition bumps
// past whatever peers report).
func (s *Store) LoadLease() (LeaseInfo, bool, error) {
	raw, err := s.fs.ReadFile(LeaseFile)
	if os.IsNotExist(err) {
		return LeaseInfo{}, false, nil
	}
	if err != nil {
		return LeaseInfo{}, false, fmt.Errorf("read fleet lease: %w", err)
	}
	var doc leaseDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Format != storeFormat {
		s.warnf("fleet: lease file corrupt, starting at epoch 0: %v", err)
		return LeaseInfo{}, false, nil
	}
	return doc.Lease, true, nil
}

// save installs doc in f: write the temp file, sync, rename over the
// file. Bytes equal to the last installed ones are already durable and
// are not written again. A failed step forgets the installed bytes, so
// the next save runs the whole ritual.
func (s *Store) save(f *storeFile, doc any) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	f.mu.Lock()
	defer f.mu.Unlock()
	if bytes.Equal(b, f.installed) {
		return nil
	}
	f.installed = nil
	if err := s.install(f.tmp, f.name, b); err != nil {
		return err
	}
	f.installed = b
	return nil
}

// install writes b to tmp, syncs, renames over dst.
func (s *Store) install(tmp, dst string, b []byte) error {
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, dst); err != nil {
		return fmt.Errorf("install %s: %w", dst, err)
	}
	return nil
}
