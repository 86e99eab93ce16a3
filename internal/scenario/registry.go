package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// The central scenario registry. Scenarios register at package init time
// (internal/experiments registers the paper's figures and tables plus the
// leakmatrix security sweep); cmd/sempe-bench and cmd/sempe-serve resolve
// names through it, so adding an evaluation means registering one Scenario,
// not growing either binary.
var (
	regMu   sync.Mutex
	byName  = map[string]*Scenario{}
	inOrder []*Scenario
)

// Register adds a scenario to the registry. It panics on a missing name,
// a sweep without Plan or DecodeRow, a missing renderer, or a duplicate
// name — all programmer errors at init time.
func Register(sc *Scenario) {
	switch {
	case sc == nil || sc.Name == "":
		panic("scenario: Register without a name")
	case sc.Sweep == nil || sc.Sweep.Plan == nil || sc.Sweep.DecodeRow == nil:
		panic(fmt.Sprintf("scenario: %q registered without a complete sweep", sc.Name))
	case sc.Render == nil:
		panic(fmt.Sprintf("scenario: %q registered without a renderer", sc.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[sc.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", sc.Name))
	}
	byName[sc.Name] = sc
	inOrder = append(inOrder, sc)
}

// Lookup resolves a scenario by name.
func Lookup(name string) (*Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	sc, ok := byName[name]
	return sc, ok
}

// Names returns every registered name, sorted — the list unknown-name
// errors and -list print.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scenarios returns every scenario in registration order — the order
// `-exp all` runs and renders them in.
func Scenarios() []*Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]*Scenario(nil), inOrder...)
}
