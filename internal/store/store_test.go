package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

func open(t *testing.T, dir, version string) *Store {
	t.Helper()
	s, err := OpenVersion(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles returns every entry file under the store directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".json" {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRoundTrip: a put entry comes back bit-identical; a missing key is a
// clean miss; counters track both.
func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	payload := []byte(`{"cycles": 12345, "w": 4}`)
	if err := s.Put("row|fig10|quick=true|0", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("row|fig10|quick=true|0")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %t; want payload back", got, ok)
	}
	if _, ok := s.Get("row|fig10|quick=true|1"); ok {
		t.Error("unknown key hit")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.Corrupt != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestVersionIsolation: the same key under a different code version is a
// different entry — a bumped simulator never reads stale results.
func TestVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	old := open(t, dir, "sim-v1")
	if err := old.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := open(t, dir, "sim-v2").Get("k"); ok {
		t.Error("new code version read an old version's entry")
	}
	if _, ok := open(t, dir, "sim-v1").Get("k"); !ok {
		t.Error("same version missed its own entry")
	}
}

// TestCorruptionDetected: flipped payload bytes and truncation are both
// detected on read, reported as misses, counted, and healed by deletion.
func TestCorruptionDetected(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":    func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t, t.TempDir(), "v1")
			if err := s.Put("k", []byte(`{"cycles": 999}`)); err != nil {
				t.Fatal(err)
			}
			files := entryFiles(t, s.Dir())
			if len(files) != 1 {
				t.Fatalf("entry files = %v", files)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("k"); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			if c := s.Counters(); c.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", c.Corrupt)
			}
			if left := entryFiles(t, s.Dir()); len(left) != 0 {
				t.Errorf("corrupted entry not deleted: %v", left)
			}
			// The slot heals: a fresh put and get work again.
			if err := s.Put("k", []byte(`{"cycles": 999}`)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("k"); !ok {
				t.Error("healed entry missed")
			}
		})
	}
}

// TestRejectsNonJSON: payloads must be valid JSON (the envelope embeds
// them raw).
func TestRejectsNonJSON(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("k", []byte("not json")); err == nil {
		t.Error("non-JSON payload accepted")
	}
}

// TestRejectsNonUTF8Key: a key that is not valid UTF-8 used to store an
// entry whose envelope named a different key, so every Get counted it
// corrupt and deleted it; Put now rejects it and writes nothing.
func TestRejectsNonUTF8Key(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("row|\xff|0", []byte(`1`)); err == nil {
		t.Error("key with an invalid UTF-8 byte accepted")
	}
	if files := entryFiles(t, s.Dir()); len(files) != 0 {
		t.Errorf("rejected put wrote %v", files)
	}
	if _, ok := s.Get("row|\xff|0"); ok {
		t.Error("rejected key hit")
	}
	if c := s.Counters(); c.Corrupt != 0 || c.Puts != 0 {
		t.Errorf("counters = %+v, want no put and no corrupt entry", c)
	}
}

// TestResultRoundTrip: a scenario result with typed cells survives the
// persistent tier, and its key ignores the worker count (results are
// worker-independent).
func TestResultRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	tbl := &stats.Table{Title: "t", Header: []string{"w", "x"}}
	tbl.AddRow("4", stats.Ratio(5.25))
	res := &scenario.Result{
		Scenario: "fig10a",
		Spec:     scenario.Spec{Quick: true, Workers: 8, Params: map[string]string{"ws": "4"}},
		Axes:     []scenario.Axis{{Name: "W", Values: []string{"4"}}},
		Points:   1,
		Tables:   []*stats.Table{tbl},
	}
	if err := s.PutResult(res); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetResult("fig10a", scenario.Spec{Quick: true, Workers: 1, Params: map[string]string{"ws": "4"}})
	if !ok {
		t.Fatal("stored result missed (worker count must not affect the key)")
	}
	if back.Scenario != "fig10a" || back.Points != 1 || !reflect.DeepEqual(back.Tables, res.Tables) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if _, ok := s.GetResult("fig10a", scenario.Spec{Quick: false, Params: map[string]string{"ws": "4"}}); ok {
		t.Error("different spec hit")
	}
}

// TestRowKeys: row entries are addressed by (sweep, spec, index), so
// scenarios sharing a sweep share rows and no other sweep reads them.
func TestRowKeys(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	specKey := (scenario.Spec{Quick: true}).Key()
	for i := 0; i < 3; i++ {
		raw, _ := json.Marshal(map[string]int{"i": i})
		if err := s.Put(rowKey("fig10", specKey, i), raw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		raw, ok := s.Get(rowKey("fig10", specKey, i))
		if !ok {
			t.Fatalf("row %d missed", i)
		}
		var m map[string]int
		if json.Unmarshal(raw, &m) != nil || m["i"] != i {
			t.Errorf("row %d = %s", i, raw)
		}
	}
	if _, ok := s.Get(rowKey("fig8", specKey, 0)); ok {
		t.Error("row hit under the wrong sweep")
	}
}

// FuzzStoreEntry: any bytes at an entry's path make Get return a miss that
// counts the entry corrupt and deletes it, or a hit that serves the
// envelope's payload, never a panic; and Put(key, p) either rejects p or a
// later Get returns p byte for byte. The seed corpus
// (testdata/fuzz/FuzzStoreEntry) holds a valid envelope, the corruptions
// of TestCorruptionDetected, a wrong key, wrongly typed fields, a non-JSON
// payload, a payload JSON would HTML-escape and a key that is not valid
// UTF-8.
func FuzzStoreEntry(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, key string, raw, payload []byte) {
		s := open(t, dir, "v1")
		p := s.path(key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		_, statErr := os.Stat(p)
		c := s.Counters()
		var e entry
		switch {
		case !ok && (c.Corrupt != 1 || c.Misses != 1):
			t.Fatalf("miss on %q counted %+v, want one corrupt miss", raw, c)
		case !ok && !errors.Is(statErr, fs.ErrNotExist):
			t.Fatalf("corrupt entry %q not deleted", raw)
		case ok && (c.Hits != 1 || c.Corrupt != 0):
			t.Fatalf("hit on %q counted %+v", raw, c)
		case ok && (json.Unmarshal(raw, &e) != nil || !bytes.Equal(got, e.Payload)):
			t.Fatalf("hit on %q served %q, not the envelope's payload", raw, got)
		}

		if err := s.Put(key, payload); err != nil {
			return
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Put(%q, %q) then Get = %q, %t; want the payload back", key, payload, got, ok)
		}
	})
}
