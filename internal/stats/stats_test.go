package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation on even-length input.
	if got := Median([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Median = %v, want 2.5", got)
	}
	// Clamping out-of-range q.
	if got := Quantile(xs, -1); !almost(got, 1) {
		t.Fatalf("Quantile(-1) = %v, want 1", got)
	}
	if got := Quantile(xs, 2); !almost(got, 5) {
		t.Fatalf("Quantile(2) = %v, want 5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || !almost(s.Min, 1) || !almost(s.Max, 5) || !almost(s.Median, 3) {
		t.Fatalf("Summarize = %+v", s)
	}
	if !almost(s.Q1, 2) || !almost(s.Q3, 4) || !almost(s.IQR(), 2) {
		t.Fatalf("quartiles wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Median) {
		t.Fatalf("empty summary = %+v", empty)
	}
	if empty.String() == "" {
		t.Fatal("String() should render")
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if !almost(s.Mean, 2) {
		t.Fatalf("mean = %v, want 2s", s.Mean)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(x, y)
	if !almost(a, 1) || !almost(b, 2) || !almost(r2, 1) {
		t.Fatalf("fit = (%v, %v, %v), want (1, 2, 1)", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	a, b, r2 := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(a) || !math.IsNaN(b) || !math.IsNaN(r2) {
		t.Fatal("constant x should yield NaNs")
	}
	a, b, r2 = LinearFit([]float64{1}, []float64{2})
	if !math.IsNaN(a) || !math.IsNaN(b) || !math.IsNaN(r2) {
		t.Fatal("single point should yield NaNs")
	}
	// Constant y: slope 0, perfect fit.
	a, b, r2 = LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if !almost(a, 4) || !almost(b, 0) || !almost(r2, 1) {
		t.Fatalf("constant-y fit = (%v, %v, %v)", a, b, r2)
	}
}

// Property: min <= q1 <= median <= q3 <= max for any input.
func TestPropertySummaryOrdered(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 || math.IsNaN(q1) || math.IsNaN(q2) {
			return true
		}
		lo, hi := math.Mod(math.Abs(q1), 1), math.Mod(math.Abs(q2), 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Quantile(clean, lo) <= Quantile(clean, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
