// Package store is the persistent on-disk result store behind sempe-serve
// and sempe-bench -store. Entries are content-addressed: a key names
// what was computed — a whole scenario result or one sweep row — and the
// entry file's name is the SHA-256 of (code version | key), so different
// simulator versions never collide and a directory can be shared by many
// processes. Each entry carries a checksum of its payload; a corrupted or
// truncated entry is detected on read, deleted, and reported as a miss, so
// callers simply recompute.
//
// Writes are atomic (temp file + rename), which makes concurrent writers
// of the same key safe: both write a full entry, one rename wins, and the
// payloads are identical because the key fully determines the computation.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"unicode/utf8"
)

// CodeVersion names the simulator's current output-affecting behavior and
// is folded into every entry's address. Bump it whenever a change moves
// cycle counts, row shapes, or rendered tables: old entries then miss and
// everything recomputes, instead of a warm store silently serving results
// from a previous simulator.
const CodeVersion = "sempe-sim-v4"

// Counters reports store traffic. Corrupt counts entries that failed
// validation on read (bad checksum, truncation, key mismatch) and were
// deleted.
type Counters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Puts    int64 `json:"puts"`
	Corrupt int64 `json:"corrupt"`
}

// Store is one on-disk entry directory under one code version. Safe for
// concurrent use.
type Store struct {
	dir     string
	version string

	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	corrupt atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir under the
// current CodeVersion.
func Open(dir string) (*Store, error) { return OpenVersion(dir, CodeVersion) }

// OpenVersion opens the store under an explicit code version — tests and
// migration tooling; everything else uses Open.
func OpenVersion(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, version: version}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters snapshots the traffic counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// entry is the on-disk envelope: the full key it answers for (guards
// against hash collisions and misplaced files) and a checksum of the
// payload (guards against torn or bit-rotted writes). Payload is encoded
// base64 so the stored bytes round-trip exactly — encoding/json would
// otherwise compact and HTML-escape an embedded raw message, and the
// checksum must cover precisely what Get returns.
type entry struct {
	Key     string `json:"key"`
	Sum     string `json:"sha256"`
	Payload []byte `json:"payload"`
}

func (s *Store) fullKey(key string) string { return s.version + "|" + key }

func (s *Store) path(key string) string {
	h := sha256.Sum256([]byte(s.fullKey(key)))
	name := hex.EncodeToString(h[:])
	return filepath.Join(s.dir, name[:2], name+".json")
}

// Get returns the payload stored under key. A missing, corrupted, or
// truncated entry is a miss; corrupted entries are deleted so the slot
// heals on the next Put.
func (s *Store) Get(key string) ([]byte, bool) {
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || e.Key != s.fullKey(key) || checksum(e.Payload) != e.Sum {
		os.Remove(p)
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Payload, true
}

// Put stores payload under key atomically. payload must be valid JSON
// (every store client persists JSON-encoded rows or results), and key valid
// UTF-8: the envelope's JSON would replace an invalid byte, so Get would
// never match the entry.
func (s *Store) Put(key string, payload []byte) error {
	if !json.Valid(payload) {
		return fmt.Errorf("store: payload for %q is not valid JSON", key)
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("store: key %q is not valid UTF-8", key)
	}
	data, err := json.Marshal(entry{Key: s.fullKey(key), Sum: checksum(payload), Payload: payload})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

func checksum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
