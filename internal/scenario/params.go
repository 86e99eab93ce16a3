package scenario

import (
	"fmt"
	"strings"
)

// ParamFlag collects repeated -param key=value command-line flags into
// the map Spec.Params carries, for sempe-bench, the one binary that
// parameterizes scenarios from the command line. It satisfies flag.Value.
type ParamFlag map[string]string

func (p ParamFlag) String() string { return fmt.Sprintf("%v", map[string]string(p)) }

// Set records one key=value pair.
func (p ParamFlag) Set(s string) error {
	k, v, found := strings.Cut(s, "=")
	if !found || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}
