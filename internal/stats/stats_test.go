package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("alpha", Int(1))
	tb.AddRow("beta-long-name", Int(22222))
	tb.AddNote("a %s note", "formatted")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "====", "alpha", "beta-long-name", "note: a formatted note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Columns align: the header and first row start the value column at the
	// same offset.
	lines := strings.Split(out, "\n")
	hdr, row := lines[2], lines[4]
	if strings.Index(hdr, "value") != strings.Index(row+"     1", "1")-0 && !strings.Contains(row, "1") {
		t.Errorf("alignment off:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if got := Ratio(10.625).String(); got != "10.62x" && got != "10.63x" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Percent(0.421).String(); got != "42.1%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Float(3.14159, 3).String(); got != "3.142" {
		t.Errorf("Float = %q", got)
	}
	if got := Int(99).String(); got != "99" {
		t.Errorf("Int = %q", got)
	}
	if got := Str("plain").String(); got != "plain" {
		t.Errorf("Str = %q", got)
	}
}

// TestJSONRoundTrip: a table survives JSON encoding bit-exactly — the
// property the golden-file tests and sempe-serve rely on.
func TestJSONRoundTrip(t *testing.T) {
	tb := &Table{
		Title:  "round trip",
		Header: []string{"workload", "cycles", "slowdown", "miss", "cpi"},
	}
	tb.AddRow("fibonacci", Int(123456789), Ratio(1.9), Percent(0.042), Float(0.731, 3))
	tb.AddRow("queens", Int(0), Ratio(10.6), Percent(0), Float(1.25, 2))
	tb.AddNote("note line")

	raw, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb, &back) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", tb, &back)
	}
}

// TestCSV: CSV carries machine values (raw fractions and multipliers), not
// display strings.
func TestCSV(t *testing.T) {
	tb := &Table{
		Title:  "csv demo",
		Header: []string{"name", "ratio", "pct"},
	}
	tb.AddRow("a,b", Ratio(1.9), Percent(0.421))
	tb.AddNote("footnote")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# csv demo\n",
		"name,ratio,pct\n",
		"\"a,b\",1.9,0.421\n", // quoting + raw values
		"# note: footnote\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestAddRowRejectsUnknownTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow accepted an int; want panic")
		}
	}()
	(&Table{}).AddRow(42)
}
