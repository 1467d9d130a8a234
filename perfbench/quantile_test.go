package main

import "testing"

// TestSummarizeExactQuantiles pins the nearest-rank quantiles against sorted
// values computed by hand.
func TestSummarizeExactQuantiles(t *testing.T) {
	cases := []struct {
		name     string
		in       []int64
		p50, p99 int64
		beyond   int
		mean     float64
	}{
		// n=1: every quantile is the only sample.
		{"one", []int64{7}, 7, 7, 0, 7},
		// n=4, shuffled: rank ceil(0.5*4)=2 -> 20; rank ceil(0.99*4)=4 -> 40.
		{"four", []int64{40, 10, 30, 20}, 20, 40, 0, 25},
		// n=5: rank ceil(2.5)=3 -> 3; rank ceil(4.95)=5 -> 5.
		{"five", []int64{5, 4, 3, 2, 1}, 3, 5, 0, 3},
		// n=100, values 1..100: rank 50 -> 50; rank 99 -> 99, one sample beyond.
		{"hundred", seq(100), 50, 99, 1, 50.5},
		// n=1000: rank 500 -> 500; rank 990 -> 990, ten beyond.
		{"thousand", seq(1000), 500, 990, 10, 500.5},
		// A failed request sorts last and is left out of the mean.
		{"failed", []int64{3, failedNS, 1, 2}, 2, failedNS, 0, 2},
	}
	for _, c := range cases {
		s := summarize(append([]int64(nil), c.in...))
		if s.n != len(c.in) || s.p50 != c.p50 || s.p99 != c.p99 || s.beyond99 != c.beyond || s.mean != c.mean {
			t.Errorf("%s: got n=%d p50=%d p99=%d beyond=%d mean=%g, want n=%d p50=%d p99=%d beyond=%d mean=%g",
				c.name, s.n, s.p50, s.p99, s.beyond99, s.mean, len(c.in), c.p50, c.p99, c.beyond, c.mean)
		}
	}
}

func TestQuantileRank(t *testing.T) {
	for _, c := range []struct{ n, num, den, want int }{
		{100, 99, 100, 99}, {101, 99, 100, 100}, {1000, 1, 2, 500}, {1001, 1, 2, 501}, {3, 1, 2, 2},
	} {
		if got := quantileRank(c.n, c.num, c.den); got != c.want {
			t.Errorf("quantileRank(%d, %d/%d) = %d, want %d", c.n, c.num, c.den, got, c.want)
		}
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(n - i) // descending, so summarize must sort
	}
	return out
}
