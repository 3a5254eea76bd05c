package modelstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flint/internal/model"
)

// snapshot serializes m the way every publisher does before PutAt.
func snapshot(t testing.TB, m model.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := model.Save(m, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutGetLatest(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := model.New(model.KindA, 1)
	m2, _ := model.New(model.KindA, 2)
	if err := s.PutAt("ads", 1, snapshot(t, m1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAt("ads", 2, snapshot(t, m2)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ads", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params()[0] != m1.Params()[0] {
		t.Fatal("v1 params mismatch")
	}
	latest, v, err := s.Latest("ads")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || latest.Params()[0] != m2.Params()[0] {
		t.Fatal("latest mismatch")
	}
}

func TestErrors(t *testing.T) {
	s, _ := New("")
	m, _ := model.New(model.KindA, 1)
	if err := s.PutAt("", 1, snapshot(t, m)); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := s.Get("nope", 1); err == nil {
		t.Fatal("missing model must fail")
	}
	if _, _, err := s.Latest("nope"); err == nil {
		t.Fatal("missing latest must fail")
	}
	if err := s.Delete("nope", 1); err == nil {
		t.Fatal("missing delete must fail")
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := model.New(model.KindB, 3)
	if err := s.PutAt("msg", 1, snapshot(t, m)); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("msg", 1, false); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "msg-v*.fct"))
	if len(matches) != 1 || filepath.Base(matches[0]) != "msg-v001.fct" {
		t.Fatalf("persisted files: %v", matches)
	}
	// The persisted .fct file is a standalone, loadable checkpoint.
	onDisk, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	restored, err := model.Load(bytes.NewReader(onDisk))
	if err != nil {
		t.Fatalf("persisted checkpoint does not load: %v", err)
	}
	if restored.Kind() != model.KindB || restored.Params()[0] != m.Params()[0] {
		t.Fatal("persisted checkpoint mismatch")
	}
	if err := s.Delete("msg", 1); err != nil {
		t.Fatal(err)
	}
	matches, _ = filepath.Glob(filepath.Join(dir, "msg-v*.fct"))
	if len(matches) != 0 {
		t.Fatalf("file not removed: %v", matches)
	}
}

func TestPutAtAndPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := model.New(model.KindA, 5)
	var buf bytes.Buffer
	if err := model.Save(m, &buf); err != nil {
		t.Fatal(err)
	}

	// PutAt is memory-only: readers see the version, the disk does not.
	if err := s.PutAt("wb", 1, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("wb", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params()[0] != m.Params()[0] {
		t.Fatal("PutAt round-trip mismatch")
	}
	if _, v, err := s.Latest("wb"); err != nil || v != 1 {
		t.Fatalf("Latest after PutAt = v%d, %v", v, err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "wb-v*.fct")); len(matches) != 0 {
		t.Fatalf("PutAt touched disk: %v", matches)
	}

	// Persist is the write-behind half.
	if err := s.Persist("wb", 1, false); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "wb-v001.fct"))
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := model.Load(bytes.NewReader(onDisk)); err != nil || restored.Params()[0] != m.Params()[0] {
		t.Fatalf("persisted checkpoint mismatch (err %v)", err)
	}

	// Contract edges: duplicate versions, bad versions, unknown persist.
	if err := s.PutAt("wb", 1, buf.Bytes()); err == nil {
		t.Fatal("duplicate PutAt must fail")
	}
	if err := s.PutAt("wb", 0, buf.Bytes()); err == nil {
		t.Fatal("non-positive version must fail")
	}
	if err := s.PutAt("", 2, buf.Bytes()); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := s.Persist("wb", 9, true); err == nil {
		t.Fatal("persisting a missing version must fail")
	}

	// A memory-only store persists as a no-op.
	mem, _ := New("")
	if err := mem.PutAt("wb", 3, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := mem.Persist("wb", 3, true); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsAndNames(t *testing.T) {
	s, _ := New("")
	m, _ := model.New(model.KindA, 1)
	raw := snapshot(t, m)
	for _, nv := range []struct {
		name    string
		version int
	}{{"b", 1}, {"a", 1}, {"a", 2}} {
		if err := s.PutAt(nv.name, nv.version, raw); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Versions("a"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("versions: %v", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names: %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := New("")
	m, _ := model.New(model.KindA, 1)
	raw := snapshot(t, m)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.PutAt("shared", 1+i*20+j, raw); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Latest("shared"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(s.Versions("shared")); got != 320 {
		t.Fatalf("expected 320 versions, got %d", got)
	}
}

// TestPersistBarrier exercises the fsync path: a barrier persist must
// land identical bytes on disk and survive version overwrite semantics.
func TestPersistBarrier(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := model.New(model.KindA, 11)
	var buf bytes.Buffer
	if err := model.Save(m, &buf); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAt("fs", 1, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist("fs", 1, true); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "fs-v001.fct"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatal("barrier persist wrote different bytes")
	}
	// A barrier re-persist of the same version truncates cleanly.
	if err := s.Persist("fs", 1, true); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, "fs-v001.fct")); !bytes.Equal(again, buf.Bytes()) {
		t.Fatal("barrier re-persist corrupted the snapshot")
	}
}

// TestRetainDropsEveryAgedVersion: retention is a range, so a store whose
// version numbers have gaps (a replica that skipped installs) still ends
// at the newest `keep` span — memory and .fct files.
func TestRetainDropsEveryAgedVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := model.New(model.KindA, 5)
	var buf bytes.Buffer
	if err := model.Save(m, &buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 3, 4, 7, 9, 10} {
		if err := s.PutAt("gap", v, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := s.Persist("gap", v, false); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Retain("gap", 10, -1); n != 0 || err != nil || len(s.Versions("gap")) != 6 {
		t.Fatalf("keep<=0 must retain everything: dropped %d, err %v", n, err)
	}
	// newest−keep = 7: versions 1, 3, 4 and 7 go, with no stored v2/v5/v6
	// to trip over.
	n, err := s.Retain("gap", 10, 3)
	if err != nil || n != 4 {
		t.Fatalf("Retain dropped %d (err %v), want 4", n, err)
	}
	if got := s.Versions("gap"); len(got) != 2 || got[0] != 9 || got[1] != 10 {
		t.Fatalf("versions after Retain = %v, want [9 10]", got)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "gap-v*"))
	if len(files) != 2 {
		t.Fatalf("files after Retain = %v, want the v9 and v10 snapshots", files)
	}
	if n, err := s.Retain("gap", 10, 3); n != 0 || err != nil {
		t.Fatalf("second Retain dropped %d (err %v), want a no-op", n, err)
	}
	if _, v, err := s.Latest("gap"); err != nil || v != 10 {
		t.Fatalf("Latest after Retain = v%d, %v", v, err)
	}
}
