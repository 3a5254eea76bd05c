// Package modelstore implements the versioned model parameter store shared
// by centralized and federated training (paper §3.1: "the model store,
// which is shared by centralized training, can store and retrieve versioned
// parameters during FL training").
package modelstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"flint/internal/model"
)

// Store keeps versioned serialized models by name. It is safe for
// concurrent use; an optional directory persists what Persist is asked to.
type Store struct {
	mu   sync.RWMutex
	blob map[string]map[int][]byte
	next map[string]int
	dir  string
}

// New creates an in-memory store; dir != "" also persists snapshots as
// name-vNNN.fct files (the versioned codec checkpoint format of
// internal/model and internal/codec).
func New(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("modelstore: mkdir %s: %w", dir, err)
		}
	}
	return &Store{
		blob: make(map[string]map[int][]byte),
		next: make(map[string]int),
		dir:  dir,
	}, nil
}

// PutAt inserts pre-serialized snapshot bytes at an explicit version,
// in memory only: write-behind publishers number versions themselves,
// insert synchronously so readers see the version immediately, and call
// Persist from a background worker so the serving path never waits on
// disk. Re-inserting an existing version is an error (it would mean two
// publishers disagree about version numbering).
func (s *Store) PutAt(name string, version int, raw []byte) error {
	if name == "" {
		return fmt.Errorf("modelstore: empty model name")
	}
	if version <= 0 {
		return fmt.Errorf("modelstore: version %d must be positive", version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blob[name] == nil {
		s.blob[name] = make(map[int][]byte)
	}
	if _, ok := s.blob[name][version]; ok {
		return fmt.Errorf("modelstore: %s v%d already stored", name, version)
	}
	s.blob[name][version] = raw
	if version > s.next[name] {
		s.next[name] = version
	}
	return nil
}

// Persist writes a stored version's bytes to the backing directory — the
// write-behind half of PutAt. With barrier set the write is fsync-ed
// through to stable storage (and the directory entry synced too) before
// Persist returns: write-behind publishers issue a barrier every N
// commits so a host crash loses at most N snapshots' disk copies, not an
// unbounded page-cache backlog. It is a no-op for a memory-only store
// and an error for a version the store does not hold.
func (s *Store) Persist(name string, version int, barrier bool) error {
	s.mu.RLock()
	raw, ok := s.blob[name][version]
	dir := s.dir
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("modelstore: %s v%d not found", name, version)
	}
	if dir == "" {
		return nil
	}
	path := snapshotPath(dir, name, version)
	if !barrier {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return fmt.Errorf("modelstore: persist %s: %w", path, err)
		}
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("modelstore: persist %s: %w", path, err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("modelstore: persist %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("modelstore: fsync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("modelstore: persist %s: %w", path, err)
	}
	// Sync the directory entry as well: a new file's durability needs
	// its name to survive, not just its bytes. Best-effort — some
	// filesystems refuse directory fsync, and the data barrier above is
	// the load-bearing half.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// snapshotPath names a persisted version: .fct, the flint checkpoint
// tensor extension.
func snapshotPath(dir, name string, v int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-v%03d.fct", name, v))
}

// Get retrieves a specific version.
func (s *Store) Get(name string, version int) (model.Model, error) {
	s.mu.RLock()
	raw, ok := s.blob[name][version]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("modelstore: %s v%d not found", name, version)
	}
	return model.Load(bytes.NewReader(raw))
}

// Latest retrieves the newest version and its number.
func (s *Store) Latest(name string) (model.Model, int, error) {
	s.mu.RLock()
	v := s.next[name]
	s.mu.RUnlock()
	if v == 0 {
		return nil, 0, fmt.Errorf("modelstore: %s has no versions", name)
	}
	m, err := s.Get(name, v)
	return m, v, err
}

// Versions lists a model's stored versions ascending.
func (s *Store) Versions(name string) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.blob[name]))
	for v := range s.blob[name] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Names lists stored model names sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.blob))
	for n := range s.blob {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Delete removes one version (old snapshots are garbage-collected in
// production stores).
func (s *Store) Delete(name string, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blob[name][version]; !ok {
		return fmt.Errorf("modelstore: %s v%d not found", name, version)
	}
	return s.deleteLocked(name, version)
}

// Retain is the store's retention rule: it drops every stored version of
// the named model at or below newest−keep, from memory and the backing
// directory, and reports how many it dropped. Version numbers may have
// gaps (a shard that refuses a malformed tier install publishes the next
// one, a version further on), so the rule is a range, not "newest−keep
// exactly". keep <= 0 retains everything.
func (s *Store) Retain(name string, newest, keep int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for v := range s.blob[name] {
		if v > newest-keep {
			continue
		}
		if err := s.deleteLocked(name, v); err != nil {
			return dropped, err
		}
		dropped++
	}
	return dropped, nil
}

// deleteLocked drops a stored version's bytes and files; callers hold mu.
func (s *Store) deleteLocked(name string, version int) error {
	delete(s.blob[name], version)
	if s.dir != "" {
		path := snapshotPath(s.dir, name, version)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("modelstore: remove %s: %w", path, err)
		}
	}
	return nil
}
