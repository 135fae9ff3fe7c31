package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one named line of a figure: x-values with one or more repeated
// y-measurements per x. It mirrors how the paper reports medians with 95%
// confidence intervals over repeated runs.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	points map[string]*point
	order  []string
}

type point struct {
	x  string
	ys []float64
}

// NewSeries creates an empty series.
func NewSeries(name, xlabel, ylabel string) *Series {
	return &Series{Name: name, XLabel: xlabel, YLabel: ylabel, points: map[string]*point{}}
}

// Add records one measurement y at position x.
func (s *Series) Add(x string, y float64) {
	p, ok := s.points[x]
	if !ok {
		p = &point{x: x}
		s.points[x] = p
		s.order = append(s.order, x)
	}
	p.ys = append(p.ys, y)
}

// At returns the summary at position x.
func (s *Series) At(x string) (Summary, bool) {
	p, ok := s.points[x]
	if !ok {
		return Summary{}, false
	}
	return Summarize(p.ys), true
}

// Xs returns the x positions in insertion order.
func (s *Series) Xs() []string { return append([]string(nil), s.order...) }

// Table collects several series sharing an x-axis and renders them as the
// rows the paper's figures plot.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	series []*Series
	byName map[string]*Series
}

// NewTable creates an empty figure table.
func NewTable(title, xlabel, ylabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel, byName: map[string]*Series{}}
}

// Series returns (creating if needed) the series with the given name.
func (t *Table) Series(name string) *Series {
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := NewSeries(name, t.XLabel, t.YLabel)
	t.byName[name] = s
	t.series = append(t.series, s)
	return s
}

// SeriesNames returns the series names in insertion order.
func (t *Table) SeriesNames() []string {
	names := make([]string, len(t.series))
	for i, s := range t.series {
		names[i] = s.Name
	}
	return names
}

// Rows returns the table's cells as Render prints them: the header (the
// x label, then one name per series), then one row per x value, each
// cell "median [ciLow,ciHigh]" (single measurements bare, "-" where a
// series has no point at that x).
func (t *Table) Rows() [][]string {
	// Union of x positions, preserving first-seen order across series.
	var xs []string
	seen := map[string]bool{}
	for _, s := range t.series {
		for _, x := range s.order {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}

	header := append([]string{t.XLabel}, t.SeriesNames()...)
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{x}
		for _, s := range t.series {
			sum, ok := s.At(x)
			switch {
			case !ok:
				row = append(row, "-")
			case sum.N == 1:
				row = append(row, fmt.Sprintf("%.4g", sum.Median))
			default:
				row = append(row, fmt.Sprintf("%.4g [%.4g,%.4g]", sum.Median, sum.CILow, sum.CIHigh))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Render writes the table in an aligned text layout, one line per row
// of Rows.
func (t *Table) Render(w io.Writer) error {
	rows := t.Rows()
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.YLabel != "" {
		fmt.Fprintf(&b, "   (y: %s)\n", t.YLabel)
	}
	for r, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
		if r == 0 {
			b.WriteString(strings.Repeat("-", sum(widths)+2*len(widths)))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Heatmap is a 2-D grid of values, used for Figure 15a.
type Heatmap struct {
	Title          string
	XLabel, YLabel string
	cells          map[[2]string]float64
	xs, ys         []string
	xSeen, ySeen   map[string]bool
}

// NewHeatmap creates an empty heatmap.
func NewHeatmap(title, xlabel, ylabel string) *Heatmap {
	return &Heatmap{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		cells: map[[2]string]float64{}, xSeen: map[string]bool{}, ySeen: map[string]bool{},
	}
}

// Set stores the value at (x, y).
func (h *Heatmap) Set(x, y string, v float64) {
	if !h.xSeen[x] {
		h.xSeen[x] = true
		h.xs = append(h.xs, x)
	}
	if !h.ySeen[y] {
		h.ySeen[y] = true
		h.ys = append(h.ys, y)
	}
	h.cells[[2]string{x, y}] = v
}

// At returns the value at (x, y).
func (h *Heatmap) At(x, y string) (float64, bool) {
	v, ok := h.cells[[2]string{x, y}]
	return v, ok
}

// Render writes the heatmap as an aligned grid, highest y first (as the
// paper's axes are drawn).
func (h *Heatmap) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", h.Title)
	fmt.Fprintf(&b, "rows: %s (top→bottom), cols: %s\n", h.YLabel, h.XLabel)
	ys := append([]string(nil), h.ys...)
	sort.Sort(sort.Reverse(sort.StringSlice(ys)))
	fmt.Fprintf(&b, "%8s", "")
	for _, x := range h.xs {
		fmt.Fprintf(&b, "  %8s", x)
	}
	b.WriteByte('\n')
	for _, y := range ys {
		fmt.Fprintf(&b, "%8s", y)
		for _, x := range h.xs {
			if v, ok := h.At(x, y); ok {
				fmt.Fprintf(&b, "  %8.3f", v)
			} else {
				fmt.Fprintf(&b, "  %8s", "-")
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
