// Package stats provides the small statistical toolkit used throughout the
// simulator: summary statistics, confidence intervals, x/y series
// containers for figure data, and aligned text-table rendering that mimics
// the paper's tables.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
// Slices with fewer than two elements have zero variance.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean of xs, using the normal critical value (the paper repeats each
// measurement six times, so we follow the same small-sample convention).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Close reports whether a and b are equal within the package's
// standard relative tolerance (1e-9, floored at an absolute scale of
// one). It is the sanctioned way to compare floats for equality — the
// floateq lint rule flags raw ==/!= on floating-point operands and
// exempts exactly this helper, whose fast path needs bitwise equality
// to accept infinities.
func Close(a, b float64) bool {
	if a == b {
		return true
	}
	return Within(a, b, 1e-9)
}

// Within reports whether a and b agree to the given relative
// tolerance, using an absolute floor of one so values near zero do not
// demand impossible precision. Like Close, it is exempt from the
// floateq lint rule.
func Within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Point is a single (x, y) observation.
type Point struct {
	X, Y float64
}

// Series is an ordered collection of points with a name, used as the
// exchange format between the simulator and the model-fitting code.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Xs returns the x values in order.
func (s *Series) Xs() []float64 {
	xs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.X
	}
	return xs
}

// Ys returns the y values in order.
func (s *Series) Ys() []float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// Sort orders the points by increasing x.
func (s *Series) Sort() {
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
}

// At returns the y value at the given x, and whether it is present.
func (s *Series) At(x float64) (float64, bool) {
	for _, p := range s.Points {
		if Close(p.X, x) {
			return p.Y, true
		}
	}
	return 0, false
}

// Table renders labelled rows of figures as an aligned text table, in the
// style of the paper's tables. Columns are the header names; each row is a
// label followed by one value per remaining column.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			s += fmt.Sprintf("%-*s", w, c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, row := range t.Rows {
		out += line(row)
	}
	return out
}

// F formats a float for table cells with the given number of decimals.
func F(x float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, x)
}
