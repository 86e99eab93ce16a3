package leak

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// TestObservePooledMatchesFresh: an observation from a pooled (Reset-reused)
// core must equal the fresh-core observation field for field — every digest
// included — across workloads, secrets, and both architectures. This is the
// leak-level face of the reset differential: Distinguish and DistinguishMany
// feed every registered scenario through ObservePooled, so this equality is
// what keeps all stored scenario goldens valid under core pooling.
func TestObservePooledMatchesFresh(t *testing.T) {
	for _, kind := range workloads.All() {
		for _, mode := range []compile.Mode{compile.Plain, compile.SeMPE} {
			cfg := pipeline.DefaultConfig()
			if mode == compile.SeMPE {
				cfg = pipeline.SecureConfig()
			}
			build := buildHarness(kind, 4, mode)
			for _, secret := range []uint64{0, 5, 15} {
				prog, err := build(secret)
				if err != nil {
					t.Fatal(err)
				}
				core := pipeline.New(cfg, prog)
				if err := core.Run(); err != nil {
					t.Fatal(err)
				}
				fresh := observationOf(core)
				// Several pooled rounds: the first may construct, later ones
				// must hit the pool's Reset path (sync.Pool never guarantees a
				// hit, but repeated single-goroutine rounds in practice reuse).
				for round := 0; round < 3; round++ {
					pooled, err := ObservePooled(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					if pooled != fresh {
						t.Errorf("%s/%v secret=%d round %d: pooled observation differs from fresh:\nfresh:  %+v\npooled: %+v",
							kind, mode, secret, round, fresh, pooled)
					}
				}
			}
		}
	}
}
