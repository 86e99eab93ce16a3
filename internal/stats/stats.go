// Package stats provides the reporting layer shared by the experiment
// scenarios, the cmd tools, and the benchmark harness: titled tables whose
// cells are typed values (not pre-formatted strings), rendered as text or
// CSV and encoded as JSON by encoding/json through their struct tags. The
// text renderer reproduces the rows/series the paper's tables and figures
// report; the JSON and CSV forms expose the same results to machines
// (sempe-serve, notebooks, diffing golden files).
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind classifies a table cell's value.
type Kind string

// Cell kinds. The distinction matters to the renderers: text output formats
// a ratio as "10.60x" and a percent as "42.3%", while CSV and JSON carry the
// underlying number so downstream tooling never has to parse display
// strings.
const (
	KindText    Kind = "text"
	KindInt     Kind = "int"
	KindFloat   Kind = "float"
	KindRatio   Kind = "ratio"   // slowdown/overhead multiplier
	KindPercent Kind = "percent" // fraction of 1.0
)

// Cell is one typed table cell. Exactly one of Text, Int, or Num is
// meaningful, selected by Kind; Prec is the display precision for KindFloat.
// The zero Cell renders as empty text. Cells round-trip through
// encoding/json unchanged.
type Cell struct {
	Kind Kind    `json:"kind"`
	Text string  `json:"text,omitempty"`
	Int  uint64  `json:"int,omitempty"`
	Num  float64 `json:"num,omitempty"`
	Prec int     `json:"prec,omitempty"`
}

// Str makes a text cell.
func Str(s string) Cell { return Cell{Kind: KindText, Text: s} }

// Int formats an integer count.
func Int(v uint64) Cell { return Cell{Kind: KindInt, Int: v} }

// Float carries a float rendered with a fixed precision.
func Float(v float64, prec int) Cell { return Cell{Kind: KindFloat, Num: v, Prec: prec} }

// Ratio carries a slowdown/overhead multiplier, rendered like the paper
// ("10.60x").
func Ratio(v float64) Cell { return Cell{Kind: KindRatio, Num: v} }

// Percent carries a fraction of 1.0, rendered as a percentage ("42.3%").
func Percent(v float64) Cell { return Cell{Kind: KindPercent, Num: v} }

// String renders the cell for the text table.
func (c Cell) String() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatUint(c.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(c.Num, 'f', c.Prec, 64)
	case KindRatio:
		return fmt.Sprintf("%.2fx", c.Num)
	case KindPercent:
		return fmt.Sprintf("%.1f%%", 100*c.Num)
	}
	return c.Text
}

// csvValue renders the cell's machine-readable form: the raw number for
// numeric kinds (a percent cell carries the fraction, not the scaled
// display value) and the text otherwise.
func (c Cell) csvValue() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatUint(c.Int, 10)
	case KindFloat, KindRatio, KindPercent:
		return strconv.FormatFloat(c.Num, 'g', -1, 64)
	}
	return c.Text
}

// Table is a titled table of typed cells.
type Table struct {
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Rows   [][]Cell `json:"rows"`
	Notes  []string `json:"notes,omitempty"`
}

// AddRow appends a row. Each cell may be a Cell or a plain string (kept for
// call-site readability: most label columns are strings).
func (t *Table) AddRow(cells ...any) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v
		case string:
			row[i] = Str(v)
		default:
			panic(fmt.Sprintf("stats: AddRow cell %d: unsupported type %T", i, c))
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	text := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		text[r] = make([]string, len(row))
		for i, c := range row {
			text[r][i] = c.String()
			if i < len(widths) && len(text[r][i]) > widths[i] {
				widths[i] = len(text[r][i])
			}
		}
	}
	line := func(cells []string) {
		var parts []string
		for i, c := range cells {
			if i < len(widths) {
				parts = append(parts, pad(c, widths[i]))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	var sep []string
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	line(sep)
	for _, row := range text {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table as CSV: a `# title` pragma line, the header
// row, then one record per row carrying machine-readable values (numbers,
// not display strings). Notes are appended as `# note:` pragma lines.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	rec := make([]string, 0, len(t.Header))
	for _, row := range t.Rows {
		rec = rec[:0]
		for _, c := range row {
			rec = append(rec, c.csvValue())
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
