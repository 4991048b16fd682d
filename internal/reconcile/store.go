package reconcile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The store persists desired state as a JSONL snapshot plus an fsync'd
// append log:
//
//	state.snap  — header line {"format":1,"version":N}, then one Entry
//	              per line (the state at the last compaction)
//	state.log   — one logRecord per line, replayed over the snapshot
//
// Log appends are group-committed (see DesiredState): each append writes
// every record pending at that moment and fsyncs once, and a mutation
// returns only after an fsync covering its record has finished, so a
// crash loses at most the records of the one flush in flight. Compaction writes state.snap.tmp, syncs, renames
// over state.snap, then truncates the log; a crash between rename and
// truncate merely replays already-folded ops, which is idempotent.
// Loading is corruption-tolerant: an invalid or truncated trailing line
// (the torn write of the crash that killed the previous daemon) is
// skipped with a logged warning, and the last valid state wins — a
// corrupt state file must degrade warm restart, never prevent startup.

// Snapshot and log file names inside the state FS.
const (
	SnapshotFile = "state.snap"
	LogFile      = "state.log"
	tmpFile      = "state.snap.tmp"
	// PolicyFile holds the last-good policy configuration, persisted
	// alongside the desired state so a canary rollback survives a crash
	// (see internal/guard's canary controller).
	PolicyFile    = "policy-lastgood.json"
	policyTmpFile = PolicyFile + ".tmp"
	// EpochFile holds the highest fleet fencing epoch this agent has
	// observed, so fencing against deposed coordinators survives agent
	// restarts (see internal/fleet's EpochGate).
	EpochFile    = "fleet-epoch.json"
	epochTmpFile = EpochFile + ".tmp"
)

// storeFormat is the on-disk format version in the snapshot header.
const storeFormat = 1

// File is a writable, syncable handle from an FS.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem slice the store needs — injectable so tests
// exercise fsync ordering, crash truncation, and corruption without
// touching a real disk.
type FS interface {
	// ReadFile returns a file's full contents; a missing file returns an
	// error satisfying os.IsNotExist / errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Append opens a file for appending, creating it if needed.
	Append(name string) (File, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
}

// --- real filesystem ---

// OSFS is an FS rooted at a directory on the host filesystem.
type OSFS struct {
	Dir string
}

var _ FS = OSFS{}

// NewOSFS creates the directory (if needed) and returns an FS rooted
// there.
func NewOSFS(dir string) (OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return OSFS{}, fmt.Errorf("state dir: %w", err)
	}
	return OSFS{Dir: dir}, nil
}

func (f OSFS) path(name string) string { return filepath.Join(f.Dir, name) }

// ReadFile implements FS.
func (f OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(f.path(name)) }

// Create implements FS.
func (f OSFS) Create(name string) (File, error) { return os.Create(f.path(name)) }

// Append implements FS.
func (f OSFS) Append(name string) (File, error) {
	return os.OpenFile(f.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (f OSFS) Rename(oldname, newname string) error {
	return os.Rename(f.path(oldname), f.path(newname))
}

// --- in-memory filesystem (tests) ---

// MemFS is an in-memory FS for tests and simulation. Files are plain
// byte slices that tests may inspect or corrupt directly. Syncs counts
// fsync calls so durability ordering is assertable, and each file
// tracks how many of its bytes have been synced so a simulated crash
// (DropUnsynced) can model the kernel page cache: reads see every
// write immediately, but only fsynced bytes survive power loss.
type MemFS struct {
	mu     sync.Mutex
	files  map[string][]byte
	synced map[string]int
	Syncs  int
}

var _ FS = (*MemFS)(nil)

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte), synced: make(map[string]int)}
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	m.files[name] = nil
	m.synced[name] = 0
	m.mu.Unlock()
	return &memFile{fs: m, name: name}, nil
}

// Append implements FS.
func (m *MemFS) Append(name string) (File, error) {
	m.mu.Lock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	m.mu.Unlock()
	return &memFile{fs: m, name: name}, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	m.files[newname] = b
	m.synced[newname] = m.synced[oldname]
	delete(m.files, oldname)
	delete(m.synced, oldname)
	return nil
}

// DropUnsynced simulates a crash: every file is truncated to its last
// fsynced length, and files that were never synced vanish — exactly
// what an OS page cache loses on power failure. A writer following the
// write→fsync→rename discipline (both persistent stores do) loses
// nothing; one that skips the fsync loses its tail, which is the bug
// this hook exists to surface.
func (m *MemFS) DropUnsynced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, b := range m.files {
		n := m.synced[name]
		if n <= 0 {
			delete(m.files, name)
			delete(m.synced, name)
			continue
		}
		if n < len(b) {
			m.files[name] = b[:n]
			m.synced[name] = n
		}
	}
}

// SetFile overwrites a file's raw contents — the corruption-injection
// hook for tests. The injected bytes count as durable.
func (m *MemFS) SetFile(name string, b []byte) {
	m.mu.Lock()
	m.files[name] = append([]byte(nil), b...)
	m.synced[name] = len(b)
	m.mu.Unlock()
}

// FileBytes returns a copy of a file's raw contents ("" when absent).
func (m *MemFS) FileBytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.files[name]...)
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.mu.Unlock()
	return len(p), nil
}
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.Syncs++
	f.fs.synced[f.name] = len(f.fs.files[f.name])
	f.fs.mu.Unlock()
	return nil
}
func (f *memFile) Close() error { return nil }

// --- log records ---

// Log operation kinds.
const (
	opSet = "set"
	opDel = "del"
)

// logRecord is one line of state.log.
type logRecord struct {
	Op    string `json:"op"`
	Entry *Entry `json:"entry,omitempty"` // set
	Key   string `json:"key,omitempty"`   // del
	// Version stamps del records (set records carry it in the entry).
	Version int64 `json:"version,omitempty"`
}

// snapHeader is the first line of state.snap.
type snapHeader struct {
	Format  int   `json:"format"`
	Version int64 `json:"version"`
}

// --- store ---

// Store persists a DesiredState through an FS. Not safe for concurrent
// use on its own — DesiredState serializes access through its commit
// lock.
type Store struct {
	fs     FS
	warnf  func(format string, args ...any)
	log    File
	logOps int
}

// NewStore creates a store over fs. warnf receives corruption warnings
// during Load (nil discards them).
func NewStore(fs FS, warnf func(format string, args ...any)) *Store {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	return &Store{fs: fs, warnf: warnf}
}

// Load reads the snapshot and replays the log, tolerating corrupt lines.
// It returns the reconstructed entries and the highest version seen.
func (s *Store) Load() (map[string]Entry, int64, error) {
	entries := make(map[string]Entry)
	var version int64

	if raw, err := s.fs.ReadFile(SnapshotFile); err == nil {
		version = s.loadSnapshot(raw, entries)
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("read snapshot: %w", err)
	}

	s.logOps = 0
	if raw, err := s.fs.ReadFile(LogFile); err == nil {
		if v := s.replayLog(raw, entries); v > version {
			version = v
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("read log: %w", err)
	}

	for _, e := range entries {
		if e.Version > version {
			version = e.Version
		}
	}
	return entries, version, nil
}

// loadSnapshot parses snapshot lines into entries, returning the header
// version (0 if the header is unreadable).
func (s *Store) loadSnapshot(raw []byte, entries map[string]Entry) int64 {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var version int64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			var h snapHeader
			if err := json.Unmarshal([]byte(text), &h); err != nil || h.Format != storeFormat {
				// Salvage what we can: the entry lines that follow are
				// individually parseable; only the recorded version is lost
				// (it re-derives from the entries' own version stamps).
				s.warnf("reconcile: snapshot header invalid (line 1), salvaging entries: %.80s", text)
				continue
			}
			version = h.Version
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(text), &e); err != nil || e.Kind == "" {
			s.warnf("reconcile: skipping corrupt snapshot line %d: %.80s", line, text)
			continue
		}
		entries[e.Key()] = e
	}
	return version
}

// replayLog applies log records over entries, returning the highest
// version seen in the log.
func (s *Store) replayLog(raw []byte, entries map[string]Entry) int64 {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var version int64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			s.warnf("reconcile: skipping corrupt log line %d: %.80s", line, text)
			continue
		}
		switch rec.Op {
		case opSet:
			if rec.Entry == nil || rec.Entry.Kind == "" {
				s.warnf("reconcile: skipping malformed set record at log line %d", line)
				continue
			}
			entries[rec.Entry.Key()] = *rec.Entry
			if rec.Entry.Version > version {
				version = rec.Entry.Version
			}
		case opDel:
			delete(entries, rec.Key)
			if rec.Version > version {
				version = rec.Version
			}
		default:
			s.warnf("reconcile: skipping unknown op %q at log line %d", rec.Op, line)
			continue
		}
		s.logOps++
	}
	return version
}

// appendLog durably appends a batch of n encoded records (one per line)
// to the log: one write, one fsync.
func (s *Store) appendLog(batch []byte, n int) error {
	if s.log == nil {
		f, err := s.fs.Append(LogFile)
		if err != nil {
			return fmt.Errorf("open log: %w", err)
		}
		s.log = f
	}
	if _, err := s.log.Write(batch); err != nil {
		return fmt.Errorf("append log: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("sync log: %w", err)
	}
	s.logOps += n
	return nil
}

// LogOps returns the number of log records since the last compaction.
func (s *Store) LogOps() int { return s.logOps }

// Compact folds entries into a fresh snapshot (written to a temp file,
// synced, renamed into place) and truncates the log.
func (s *Store) Compact(entries map[string]Entry, version int64) error {
	f, err := s.fs.Create(tmpFile)
	if err != nil {
		return fmt.Errorf("create snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(snapHeader{Format: storeFormat, Version: version}); err != nil {
		f.Close()
		return err
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := enc.Encode(entries[k]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmpFile, SnapshotFile); err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	// Truncate the log: everything it held is now in the snapshot.
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	lf, err := s.fs.Create(LogFile)
	if err != nil {
		return fmt.Errorf("truncate log: %w", err)
	}
	if err := lf.Sync(); err != nil {
		lf.Close()
		return err
	}
	if err := lf.Close(); err != nil {
		return err
	}
	s.logOps = 0
	return nil
}

// SaveLastGoodPolicy atomically persists the last-good policy config
// (written to a temp file, synced, renamed into place) alongside the
// desired-state snapshot. It implements the canary controller's
// PolicyStore so a rollback survives a crash: a restarting daemon loads
// the config that was last promoted, never a half-rolled-out candidate.
func (s *Store) SaveLastGoodPolicy(config []byte) error {
	f, err := s.fs.Create(policyTmpFile)
	if err != nil {
		return fmt.Errorf("create policy file: %w", err)
	}
	if _, err := f.Write(config); err != nil {
		f.Close()
		return fmt.Errorf("write policy file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync policy file: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(policyTmpFile, PolicyFile); err != nil {
		return fmt.Errorf("install policy file: %w", err)
	}
	return nil
}

// LoadLastGoodPolicy reads the persisted last-good policy config. A
// missing file is not an error: ok is false and the caller falls back to
// its static configuration.
func (s *Store) LoadLastGoodPolicy() ([]byte, bool, error) {
	raw, err := s.fs.ReadFile(PolicyFile)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("read policy file: %w", err)
	}
	return raw, true, nil
}

// SaveFleetEpoch atomically persists the highest fleet fencing epoch
// this agent has observed (same temp-write/sync/rename ritual as the
// policy file). It implements the fleet EpochGate's EpochStore, so a
// restarted agent still rejects a deposed coordinator's stale pushes.
func (s *Store) SaveFleetEpoch(epoch int64) error {
	f, err := s.fs.Create(epochTmpFile)
	if err != nil {
		return fmt.Errorf("create epoch file: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%d\n", epoch); err != nil {
		f.Close()
		return fmt.Errorf("write epoch file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync epoch file: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(epochTmpFile, EpochFile); err != nil {
		return fmt.Errorf("install epoch file: %w", err)
	}
	return nil
}

// LoadFleetEpoch reads the persisted fleet fencing epoch. A missing or
// unparsable file is not an error: ok is false and fencing starts from
// epoch 0 (degrades open — a damaged file must never lock a node out of
// accepting policy).
func (s *Store) LoadFleetEpoch() (int64, bool, error) {
	raw, err := s.fs.ReadFile(EpochFile)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("read epoch file: %w", err)
	}
	e, perr := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if perr != nil || e < 0 {
		return 0, false, nil
	}
	return e, true, nil
}

// Close releases the append handle (the files themselves need no
// shutdown ritual — every append was synced before its writers
// returned).
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
