package cluster

import (
	"fmt"
	"strings"
)

// ParseWorkers parses a comma-separated worker list (sempe-bench -workers,
// sempe-serve -cluster-workers) into base URLs, enforcing fleet hygiene at
// startup: an empty entry ("a,,b" or a trailing comma) and a duplicate
// address are both configuration mistakes — a duplicate would silently
// dispatch shards to the same process twice while halving the apparent
// fleet — and are rejected with a clear error instead of surfacing later
// as puzzling scheduling. Entries are trimmed and compared with trailing
// slashes stripped ("http://a:1/" duplicates "http://a:1"). The empty
// string is a valid empty fleet (compute in-process).
func ParseWorkers(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	seen := map[string]int{}
	var out []string
	for i, f := range strings.Split(s, ",") {
		u := strings.TrimSpace(f)
		if u == "" {
			return nil, fmt.Errorf("cluster: empty worker entry at position %d in %q", i+1, s)
		}
		key := strings.TrimRight(u, "/")
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q (positions %d and %d)", u, prev, i+1)
		}
		seen[key] = i + 1
		out = append(out, u)
	}
	return out, nil
}
