package stats

import (
	"math"
	"testing"
	"testing/quick"

	"s3crm/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 5 {
		t.Fatalf("N = %d, want 5", r.N())
	}
	if !almost(r.Mean(), 3, 1e-12) {
		t.Fatalf("Mean = %v, want 3", r.Mean())
	}
	if !almost(r.Variance(), 2.5, 1e-12) {
		t.Fatalf("Variance = %v, want 2.5", r.Variance())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 || r.CI95() != 0 {
		t.Fatal("zero-value Running should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Variance() != 0 {
		t.Fatalf("variance of single sample = %v, want 0", r.Variance())
	}
	if r.Mean() != 42 {
		t.Fatalf("mean = %v, want 42", r.Mean())
	}
}

// TestMomentsMatchRunning: the moment-based estimators agree with the
// Welford accumulator on the same data — they are the stateless form used
// when only E[X] and E[X²] survive an evaluation (diffusion Results).
func TestMomentsMatchRunning(t *testing.T) {
	src := rng.New(9)
	xs := make([]float64, 500)
	var r Running
	var sum, sumSq float64
	for i := range xs {
		xs[i] = src.NormFloat64()*2 + 5
		r.Add(xs[i])
		sum += xs[i]
		sumSq += xs[i] * xs[i]
	}
	n := len(xs)
	mean, meanSq := sum/float64(n), sumSq/float64(n)
	if v := VarianceFromMoments(n, mean, meanSq); !almost(v, r.Variance(), 1e-9) {
		t.Fatalf("VarianceFromMoments = %v, Running.Variance = %v", v, r.Variance())
	}
	if se := StdErrFromMoments(n, mean, meanSq); !almost(se, r.StdErr(), 1e-9) {
		t.Fatalf("StdErrFromMoments = %v, Running.StdErr = %v", se, r.StdErr())
	}
}

func TestMomentsDegenerate(t *testing.T) {
	// Fewer than two samples carry no variance information.
	if v := VarianceFromMoments(1, 3, 9); v != 0 {
		t.Fatalf("n=1 variance = %v, want 0", v)
	}
	if se := StdErrFromMoments(0, 0, 0); se != 0 {
		t.Fatalf("n=0 stderr = %v, want 0", se)
	}
	// Floating-point cancellation can push meanSq fractionally below mean²
	// for near-constant data; the estimate clamps at zero instead of
	// producing NaN downstream.
	if v := VarianceFromMoments(100, 1, 1-1e-16); v != 0 {
		t.Fatalf("cancellation variance = %v, want 0", v)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	// Clamping outside [0,1].
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Fatal("Quantile does not clamp q")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); !almost(got, 3, 1e-12) {
		t.Fatalf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	src := rng.New(8)
	f := func(seed uint64) bool {
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = src.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawExponentRecovers(t *testing.T) {
	// Sample from a discrete power law with alpha=2.5 via inverse CDF
	// approximation, then check the MLE recovers it within tolerance.
	src := rng.New(17)
	const alpha = 2.5
	degrees := make([]int, 20000)
	for i := range degrees {
		u := src.Float64()
		// Clauset et al. discrete approximation:
		// x = floor((xmin - 0.5)*(1-u)^(-1/(alpha-1)) + 0.5)
		x := (1-0.5)*math.Pow(1-u, -1/(alpha-1)) + 0.5
		degrees[i] = int(x)
		if degrees[i] < 1 {
			degrees[i] = 1
		}
	}
	// The (xmin-0.5) continuity correction is accurate for xmin >= 2;
	// estimate over the tail.
	got := PowerLawExponent(degrees, 3)
	if math.Abs(got-alpha) > 0.2 {
		t.Fatalf("estimated exponent %v, want ~%v", got, alpha)
	}
}

func TestPowerLawExponentDegenerate(t *testing.T) {
	if PowerLawExponent(nil, 1) != 0 {
		t.Fatal("empty input should give 0")
	}
	if PowerLawExponent([]int{1}, 1) != 0 {
		t.Fatal("single observation should give 0")
	}
	if PowerLawExponent([]int{0, 0, 0}, 1) != 0 {
		t.Fatal("all-below-xmin should give 0")
	}
}

func TestRunningString(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
}
