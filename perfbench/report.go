package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// failedNS is the latency recorded for a request that failed or was shed: it
// sorts above every real sample, so a failure counts as missing any latency
// limit a quantile is compared against.
const failedNS = math.MaxInt64

// summary is the exact distribution of one set of latency samples.
type summary struct {
	n        int
	p50, p99 int64 // nanoseconds, nearest rank
	beyond99 int   // samples strictly above the p99 rank
	mean     float64
}

// quantileRank is the 1-based nearest rank of the num/den quantile among n
// sorted samples: the smallest rank r with r/n >= num/den. Integer
// arithmetic keeps ranks exact (0.99*100 is not 99 in float64).
func quantileRank(n, num, den int) int {
	r := (n*num + den - 1) / den
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank num/den quantile of sorted samples.
func quantile(sorted []int64, num, den int) int64 {
	return sorted[quantileRank(len(sorted), num, den)-1]
}

// summarize sorts samples in place and returns their exact p50 and p99, the
// number of samples beyond the p99 and the mean of the finite samples.
func summarize(samples []int64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := summary{n: len(samples), p50: quantile(samples, 1, 2), p99: quantile(samples, 99, 100)}
	s.beyond99 = s.n - quantileRank(s.n, 99, 100)
	var sum float64
	finite := 0
	for _, v := range samples {
		if v != failedNS {
			sum += float64(v)
			finite++
		}
	}
	if finite > 0 {
		s.mean = sum / float64(finite)
	}
	return s
}

// metric is one reported figure. n is the number of samples behind a timing
// (0 for counts, ratios and totals), base the denominator behind a ratio.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	base  string
	na    bool // the metric does not apply to this workload; value is 0
}

// check is one correctness check of a run's outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

// ledgerRow is one layer's self time per decision in a run's ledger.
type ledgerRow struct {
	layer  string
	selfUS float64
	how    string
}

// result is everything one run of one workload reports.
type result struct {
	workload  string
	traced    bool
	attempted int64
	failed    int64
	e2e       []metric
	layers    []metric
	checks    []check
	notes     []string
	// ledgerE2EUS is the end-to-end time per decision the ledger rows are
	// reconciled against; ledger holds the layer self times.
	ledgerE2EUS float64
	ledgerWhat  string
	ledger      []ledgerRow
}

func (r *result) add(m metric)   { r.e2e = append(r.e2e, m) }
func (r *result) layer(m metric) { r.layers = append(r.layers, m) }
func (r *result) note(f string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(f, a...))
}

// expect records a correctness check.
func (r *result) expect(name string, ok bool, f string, a ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(f, a...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// latencyMetrics adds the p50 (an end-to-end metric) and the p99 (reported,
// not gated) of samples under the given names and unit scale (nanoseconds
// per unit). A p99 needs at least ten samples beyond it; with fewer the run
// fails a check instead of reporting a quantile the sample cannot support.
func (r *result) latencyMetrics(p50Name, p99Name, unit string, nsPerUnit float64, s summary) {
	r.add(metric{name: p50Name, value: nsValue(s.p50, nsPerUnit), unit: unit, n: s.n})
	r.layer(metric{name: p99Name, value: nsValue(s.p99, nsPerUnit), unit: unit, n: s.n})
	r.expect(p99Name+"-support", s.beyond99 >= 10,
		"%d samples, %d beyond the p99", s.n, s.beyond99)
}

// nsValue converts a nanosecond quantile to a unit; a quantile that landed on
// a failed request stays infinite in the text output and reads as the
// largest float in the JSON.
func nsValue(ns int64, nsPerUnit float64) float64 {
	if ns == failedNS {
		return math.MaxFloat64
	}
	return float64(ns) / nsPerUnit
}

// printText writes the human-readable report of one run.
func (r *result) printText(w io.Writer, seed int64, seconds int) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d (%s)\n", r.workload, seed, seconds, mode)
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", r.attempted, r.failed)
	fmt.Fprintln(w, "-- end-to-end")
	for _, m := range r.e2e {
		printMetric(w, m)
	}
	if !r.traced {
		fmt.Fprintln(w, "-- end-to-end, not gated")
		for _, m := range r.layers {
			printMetric(w, m)
		}
	} else {
		fmt.Fprintln(w, "-- per-layer")
		for _, m := range r.layers {
			printMetric(w, m)
		}
		if len(r.ledger) > 0 {
			fmt.Fprintf(w, "-- ledger: %s = %.4f us/decision\n", r.ledgerWhat, r.ledgerE2EUS)
			sum := 0.0
			for _, row := range r.ledger {
				sum += row.selfUS
				fmt.Fprintf(w, "  %-28s %10.4f us  %6.1f%%  (%s)\n", row.layer, row.selfUS,
					100*row.selfUS/r.ledgerE2EUS, row.how)
			}
			un := r.ledgerE2EUS - sum
			fmt.Fprintf(w, "  %-28s %10.4f us  %6.1f%%\n", "unaccounted", un, 100*un/r.ledgerE2EUS)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note  %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-26s %s  %s\n", c.name, status, c.detail)
	}
}

func printMetric(w io.Writer, m metric) {
	switch {
	case m.na:
		fmt.Fprintf(w, "  %-40s n/a\n", m.name)
	case m.n > 0:
		fmt.Fprintf(w, "  %-40s %.6g %s  (n=%d)\n", m.name, m.value, m.unit, m.n)
	case m.base != "":
		fmt.Fprintf(w, "  %-40s %.6g %s  (base %s)\n", m.name, m.value, m.unit, m.base)
	default:
		fmt.Fprintf(w, "  %-40s %.6g %s\n", m.name, m.value, m.unit)
	}
}

// jsonLine is the one-line machine-readable result: end-to-end metrics for
// an untraced run, per-layer metrics for a traced one.
func (r *result) jsonLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.e2e
	if r.traced {
		ms = r.layers
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) {
			v = 0 // a quantile the samples could not support; its check has failed
		}
		out.Metrics[m.name] = val{Value: v, Unit: m.unit}
	}
	return json.Marshal(out)
}

// lookup returns the named end-to-end metric.
func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.e2e {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// unaccounted is the share of the ledger's end-to-end time per decision that
// no layer row explains.
func (r *result) unaccounted() float64 {
	sum := 0.0
	for _, row := range r.ledger {
		sum += row.selfUS
	}
	return (r.ledgerE2EUS - sum) / r.ledgerE2EUS
}

// scaled returns vs multiplied by k.
func scaled(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}
