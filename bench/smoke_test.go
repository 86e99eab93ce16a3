package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, through the worker-process entry point, and checks the protocol
// lines and that every output check passed.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			e := &env{seed: 1, seconds: 0.5, trace: trace, traceDir: t.TempDir(), workDir: t.TempDir(), tiny: true}
			var out bytes.Buffer
			if err := runChild(w, e, false, &out); err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			sc := bufio.NewScanner(&out)
			if !sc.Scan() || sc.Text() != "ready" {
				t.Fatalf("%s: first line %q, want ready", w.name, sc.Text())
			}
			if !sc.Scan() {
				t.Fatalf("%s: no result line", w.name)
			}
			var res result
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %t): correct %t, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd[:len(endToEnd)-1] // setup_s is the parent's
			if trace {
				defs = perLayer
				if _, err := os.Stat(e.traceDir + "/" + w.name + ".trace.json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in the wrong unit (%+v)", w.name, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
			if trace && (w.name == "paper-sweep" || w.name == "keyextract") && res.Metrics["trace.coverage"].Value < 0.95 {
				t.Errorf("%s: trace coverage %v < 0.95", w.name, res.Metrics["trace.coverage"].Value)
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// A set-up-only worker stops after signalling ready and prints no result.
func TestSetupOnlyWorker(t *testing.T) {
	w, _ := findWorkload("serve-write")
	e := &env{seed: 1, seconds: 0.5, workDir: t.TempDir(), tiny: true}
	var out bytes.Buffer
	if err := runChild(w, e, true, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "ready\n" {
		t.Errorf("output %q, want only the ready line", out.String())
	}
}
