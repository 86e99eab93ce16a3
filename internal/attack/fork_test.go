package attack

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/victim"
)

// withoutMarks returns a copy of ss with every marker dropped, recursively.
func withoutMarks(ss []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch s := s.(type) {
		case *lang.Marker:
			continue
		case *lang.If:
			c := *s
			c.Then, c.Else = withoutMarks(s.Then), withoutMarks(s.Else)
			out = append(out, &c)
		case *lang.While:
			c := *s
			c.Body = withoutMarks(s.Body)
			out = append(out, &c)
		default:
			out = append(out, s)
		}
	}
	return out
}

// TestForkMarksEmitNoCode: both attack programs, for every victim, gap on
// and off, compile to the same code and data with and without their fork
// markers, plain and SeMPE; the markers only add their two symbols, in
// order, at addresses inside the code.
func TestForkMarksEmitNoCode(t *testing.T) {
	d := draw{seed0: 7, noisePre: 5, noiseWin: 2, la: 16, lb: 40}
	for _, v := range victim.All() {
		frag := v.Fragment(0b1010, 4, 2)
		for _, gap := range []int{0, 6} {
			for name, prog := range map[string]*lang.Program{
				"bp": bpProgram(frag, d, 11, gap), "primeprobe": cacheProgram(frag, d, 11, gap),
			} {
				bare := *prog
				bare.Body = withoutMarks(prog.Body)
				for _, mode := range []compile.Mode{compile.Plain, compile.SeMPE} {
					what := fmt.Sprintf("%s/%s/gap%d/%v", name, v.Name(), gap, mode)
					marked, err := compile.Compile(prog, mode)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					plain, err := compile.Compile(&bare, mode)
					if err != nil {
						t.Fatalf("%s without marks: %v", what, err)
					}
					if !bytes.Equal(marked.Prog.Code, plain.Prog.Code) || !reflect.DeepEqual(marked.Prog.Data, plain.Prog.Data) {
						t.Errorf("%s: the markers changed the compiled image", what)
					}
					syms := marked.Prog.Symbols
					lo, okLo := syms[forkLo]
					hi, okHi := syms[forkHi]
					end := marked.Prog.CodeBase + uint64(len(marked.Prog.Code))
					if !okLo || !okHi || lo > hi || lo < marked.Prog.CodeBase || hi >= end {
						t.Errorf("%s: fork window [%#x, %#x] (present %v/%v) not ordered inside the code", what, lo, hi, okLo, okHi)
					}
					if len(syms) != len(plain.Prog.Symbols)+2 {
						t.Errorf("%s: %d symbols, want the unmarked %d plus two", what, len(syms), len(plain.Prog.Symbols))
					}
				}
			}
		}
	}
}

// coreState is what a finished run leaves that the fork must reproduce.
type coreState struct {
	stats                         pipeline.Stats
	commit, mem, bp, il1, dl1, l2 uint64
	regs                          string
}

func stateOf(c *pipeline.Core) coreState {
	return coreState{c.Stats, c.CommitDigest(), c.MemDigest(), c.BP.Digest(),
		c.Hier.IL1.Digest(), c.Hier.DL1.Digest(), c.Hier.L2.Digest(), fmt.Sprint(c.ArchRegs())}
}

// forkShareAllowed bounds, per attacker, the share of calibration pairs
// that may run c1 in full. bp's window opens right after the spin loop's
// exit flush, which always drains it; prime+probe's window is the noise
// chain after the primes, which drains only when an IL1 miss holds fetch
// there until the primes complete (38% of this test's pairs stay unforked).
var forkShareAllowed = map[Kind]float64{BPProbe: 0, PrimeProbe: 0.6}

// TestForkMatchesFullCalibration is the fork's differential: for every
// attacker, victim, architecture, gap 0 and 64 and three seeds, each bit of
// a 4-bit key's calibration pair is run by the forking runner and, in full,
// by a second runner. c0 and c1 must agree on the calibration vector, the
// final Stats, the commit and memory digests, the registers and the
// predictor and cache digests. This pins the assumption the self-check
// cannot see: no registered victim makes an attacked-bit-dependent
// wrong-path access before the fork window. Forks must happen on both
// attackers and both architectures, and unforked pairs stay within
// forkShareAllowed.
func TestForkMatchesFullCalibration(t *testing.T) {
	const width, trials = 4, 2
	key := uint64(0b1011)
	type tally struct{ forks, misses int }
	tallies := map[string]*tally{}
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			tl := &tally{}
			tallies[fmt.Sprintf("%s/%s", kind, ArchName(secure))] = tl
			for _, v := range victim.Names() {
				for _, gap := range []int{0, 64} {
					for seed := int64(1); seed <= 3; seed++ {
						p := DefaultParams(kind, secure)
						p.Victim, p.Width, p.Gap, p.Seed, p.Trials = v, width, gap, seed, trials
						forking, err := newRunner(p)
						if err != nil {
							t.Fatal(err)
						}
						full, err := newRunner(p)
						if err != nil {
							t.Fatal(err)
						}
						for bit := 0; bit < width; bit++ {
							forking.p.Bit, full.p.Bit = bit, bit
							prefix := key & (uint64(1)<<uint(bit) - 1)
							forking.p.KeyPrefix, full.p.KeyPrefix = prefix, prefix
							for trial := 0; trial < trials; trial++ {
								what := fmt.Sprintf("%s/%s/%s/gap%d/seed%d bit %d trial %d", kind, ArchName(secure), v, gap, seed, bit, trial)
								before := PerfSnapshot()
								d, c0, c1, err := forking.calibPair(trial)
								if err != nil {
									t.Fatalf("%s: %v", what, err)
								}
								after := PerfSnapshot()
								forked := after.Forks > before.Forks
								tl.forks += int(after.Forks - before.Forks)
								tl.misses += int(after.ForkMisses - before.ForkMisses)
								c0, c1 = cloneObs(c0), cloneObs(c1)
								// A pair that did not fork reran c1 on the
								// core that ran c0, so only c1's state is left.
								var got0 *coreState
								got1 := stateOf(forking.core)
								if forked {
									s := stateOf(forking.core)
									got0, got1 = &s, stateOf(forking.second)
								}
								want0, err := full.run(d, d.gapCal, prefix, &full.c0buf)
								if err != nil {
									t.Fatal(err)
								}
								if got0 != nil && *got0 != stateOf(full.core) {
									t.Errorf("%s: c0's final state differs from its full run", what)
								}
								want1, err := full.run(d, d.gapCal, prefix|1<<uint(bit), &full.c1buf)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(c0, want0) || !reflect.DeepEqual(c1, want1) {
									t.Errorf("%s (forked %v): calibration vectors %v / %v, full runs %v / %v", what, forked, c0, c1, want0, want1)
								}
								if want := stateOf(full.core); got1 != want {
									t.Errorf("%s (forked %v): c1's final state differs from its full run:\n got  %+v\n want %+v",
										what, forked, got1, want)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range AllKinds() {
		for _, secure := range []bool{false, true} {
			name := fmt.Sprintf("%s/%s", kind, ArchName(secure))
			tl := tallies[name]
			share := float64(tl.misses) / float64(tl.forks+tl.misses)
			t.Logf("%s: %d forked, %d unforked (%.0f%%)", name, tl.forks, tl.misses, 100*share)
			if tl.forks == 0 {
				t.Errorf("%s: no calibration pair forked", name)
			}
			if share > forkShareAllowed[kind] {
				t.Errorf("%s: %.0f%% of pairs unforked, allowed %.0f%%", name, 100*share, 100*forkShareAllowed[kind])
			}
		}
	}
}

// TestForkRefusesDivergedPrefix: the self-check is what stands between a
// pair whose prefixes differ and a wrong fork. On the baseline the keyloop
// victim's setup branches on the key bits below the attacked one (bit 3
// here), and its then path is one instruction longer than its else path.
// c0's key is 0b0100. The true c1 (0b1100) differs only in the attacked
// bit and forks. 0b0110 takes one more then path, so the emulator stops
// elsewhere. 0b0010 takes its then path at another bit: same count and
// PC, different committed PCs, caught by the commit digest alone. A
// prime+probe c1 that primes other lines commits the same PCs at other
// addresses, caught by the memory digest alone.
func TestForkRefusesDivergedPrefix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    Kind
		key     uint64
		moveSet bool // c1 primes other lines than c0
		forks   bool
	}{
		{"true c1", BPProbe, 0b1100, false, true},
		{"longer prefix", BPProbe, 0b0110, false, false},
		{"same length, other path", BPProbe, 0b0010, false, false},
		{"true c1", PrimeProbe, 0b1100, false, true},
		{"other primed lines", PrimeProbe, 0b1100, true, false},
	} {
		p := DefaultParams(tc.kind, false)
		p.Victim, p.Width, p.Bit, p.KeyPrefix = "keyloop", 4, 3, 0b0100
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		d := stoppedAtFork(t, r)
		d1 := d
		if tc.moveSet {
			d1.la, d1.lb = d.lb, d.la
		}
		forked, err := r.fork(d1, tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if forked != tc.forks {
			t.Errorf("%s/%s (key %#b): forked %v, want %v", tc.kind, tc.name, tc.key, forked, tc.forks)
		}
	}
}

// stoppedAtFork loads trials of r's batch until c0 stops in its fork
// window and returns that trial's draw.
func stoppedAtFork(t *testing.T, r *runner) draw {
	t.Helper()
	for trial := 0; trial < 40; trial++ {
		d := r.trialDraw(trial)
		if _, err := r.load(d, d.gapCal, r.p.KeyPrefix); err != nil {
			t.Fatal(err)
		}
		syms := r.progs[0].Symbols
		stopped, err := r.core.RunToFork(syms[forkLo], syms[forkHi])
		if err != nil {
			t.Fatal(err)
		}
		if stopped {
			return d
		}
	}
	t.Fatal("c0 never stopped in its fork window")
	return draw{}
}

// TestForkCountsSharedPrefixOnce: the process-wide run counters count
// simulated work. A forked pair finishes two runs, and its instructions and
// cycles are c0's plus c1's minus the prefix they share, which the forked
// core inherits as already published.
func TestForkCountsSharedPrefixOnce(t *testing.T) {
	for _, secure := range []bool{false, true} {
		p := DefaultParams(BPProbe, secure)
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		before, forks := pipeline.GlobalSpecCounters(), PerfSnapshot().Forks
		d, _, _, err := r.calibPair(0)
		if err != nil {
			t.Fatal(err)
		}
		got := pipeline.GlobalSpecCounters()
		if PerfSnapshot().Forks != forks+1 {
			t.Fatalf("%s: the pair did not fork", ArchName(secure))
		}
		c0, c1 := r.core.Stats, r.second.Stats
		// The shared prefix: c0 again, stopped where it forked.
		if _, err := r.load(d, d.gapCal, p.KeyPrefix); err != nil {
			t.Fatal(err)
		}
		syms := r.progs[0].Symbols
		if stopped, err := r.core.RunToFork(syms[forkLo], syms[forkHi]); err != nil || !stopped {
			t.Fatalf("rerun of c0: stopped %v, err %v", stopped, err)
		}
		prefix := r.core.Stats
		if n := got.Runs - before.Runs; n != 2 {
			t.Errorf("%s: %d runs counted, want 2", ArchName(secure), n)
		}
		if n, want := got.Insts-before.Insts, c0.Insts+c1.Insts-prefix.Insts; n != want {
			t.Errorf("%s: %d instructions counted, want %d (c0 %d + c1 %d - prefix %d)",
				ArchName(secure), n, want, c0.Insts, c1.Insts, prefix.Insts)
		}
		if n, want := got.Cycles-before.Cycles, c0.Cycles+c1.Cycles-prefix.Cycles; n != want {
			t.Errorf("%s: %d cycles counted, want %d", ArchName(secure), n, want)
		}
	}
}
