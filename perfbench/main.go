// Command perfbench is the repository benchmark: four workloads that drive
// the SODA serving path, the fleet simulator and the paper-reproduction
// simulator through their public functions, report end-to-end metrics from
// an untraced run and per-layer metrics from a traced run, and check every
// workload's outputs for correctness.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-http --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 8
//
// One run prints a text report and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. --workload all runs every
// workload untraced and traced, prints each report, the tracing overhead per
// end-to-end metric, and exits non-zero if any correctness check failed.
// See perfbench/README.md for the metric definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists every end-to-end metric; every untraced run reports all of
// them. BENCHMARK.json carries the same names with their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"first_decide_p50_us", "us"},
	{"heap_bytes_per_session", "B"},
}

// perLayer lists every per-layer metric; every traced run reports all of
// them, with the ones a workload does not exercise marked n/a (0 in JSON).
var perLayer = []metricSpec{
	// End-to-end latencies every run prints but no bound gates: on
	// serve-http they moved with host CPU steal by more than any usable
	// bound (see README.md).
	{"decide_p50_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"first_decide_p99_us", "us"},
	{"httpseg.handler_p50_us", "us"},
	{"httpseg.handler_p99_us", "us"},
	{"httpseg.parse_encode_self_us", "us"},
	{"httpseg.transport_self_us", "us"},
	{"loadgen.pacer_lag_p50_us", "us"},
	{"loadgen.pacer_lag_p99_us", "us"},
	{"sessiontable.admit_us", "us"},
	{"sessiontable.acquire_steady_p50_us", "us"},
	{"sessiontable.acquire_create_p50_us", "us"},
	{"sessiontable.acquire_create_p99_us", "us"},
	{"sessiontable.created", "count"},
	{"sessiontable.evicted_idle", "count"},
	{"sessiontable.rejected", "count"},
	{"arena.session_p50_us", "us"},
	{"arena.live", "count"},
	{"arena.slabs", "count"},
	{"arena.allocs", "count"},
	{"arena.frees", "count"},
	{"core.decide_p50_us", "us"},
	{"core.decide_p99_us", "us"},
	{"core.decide_ns", "ns"},
	{"core.table_hit_ns", "ns"},
	{"core.fallback_ns", "ns"},
	{"core.table_lookups", "count"},
	{"core.table_hit_ratio", "ratio"},
	{"core.table_fallbacks", "count"},
	{"core.solves", "count"},
	{"core.nodes_per_solve", "count"},
	{"core.memo_lookups", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.shared_lookups", "count"},
	{"core.shared_hit_ratio", "ratio"},
	{"core.table_compile_s", "s"},
	{"core.init_prewarm_us", "us"},
	{"sim.advance_ns_per_decision", "ns"},
	{"sim.wheel_player_self_ns", "ns"},
	{"sim.run_self_share", "ratio"},
	{"sim.decisions", "count"},
	{"sim.waits", "count"},
	{"sim.segments", "count"},
	{"sim.stall_s", "s"},
	{"predictor.observe_ns", "ns"},
	{"predictor.predict_ns", "ns"},
	{"tracegen.session_ms", "ms"},
	{"runtime.allocs_per_decision", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.heap_live_mb", "MB"},
	{"flightrec.incidents_per_1k_sessions", "count"},
	{"flightrec.oscillation_per_1k_sessions", "count"},
	{"flightrec.stall_per_1k_sessions", "count"},
	{"flightrec.underrun_risk_per_1k_sessions", "count"},
	{"ledger.unaccounted_share", "ratio"},
}

// params are the inputs of one run.
type params struct {
	seed    int64
	seconds int
	traced  bool
	// procs is the host's CPU count: the number of client connections or
	// load-generating workers every workload uses.
	procs int
}

// workloads maps each workload name to its runner.
var workloads = []struct {
	name string
	run  func(p params) (*result, error)
}{
	{"serve-http", runServeHTTP},
	{"serve-churn", runServeChurn},
	{"fleet-100k", runFleet},
	{"dataset-sim", runDatasetSim},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "serve-http, serve-churn, fleet-100k, dataset-sim, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 8, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	spin := flag.Int("spin", 0, "internal: run as the vCPU spinner child with this many threads")
	flag.Parse()
	if *spin > 0 {
		spinForever(*spin)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1, procs: runtime.NumCPU()}
	if *workload == "all" {
		return runAll(p)
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		res, err := runOne(w.name, w.run, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.printText(os.Stdout, p.seed, p.seconds)
		line, err := res.jsonLine()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.correct() {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
	return 2
}

// runOne runs one workload and completes its metric lists: every end-to-end
// metric must have been reported, and per-layer metrics the workload does
// not exercise are filled in as n/a.
func runOne(name string, fn func(params) (*result, error), p params) (*result, error) {
	res, err := fn(p)
	if err != nil {
		return nil, err
	}
	res.workload, res.traced = name, p.traced
	e2e, err := ordered(res.e2e, endToEnd, false)
	if err != nil {
		return nil, err
	}
	res.e2e = e2e
	if p.traced {
		if res.layers, err = ordered(res.layers, perLayer, true); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ordered returns got in the order of specs. A metric outside specs is an
// error, as is a missing one unless fill adds it as n/a.
func ordered(got []metric, specs []metricSpec, fill bool) ([]metric, error) {
	byName := map[string]metric{}
	for _, m := range got {
		if _, dup := byName[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		byName[m.name] = m
	}
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		m, ok := byName[s.name]
		switch {
		case ok && m.unit != s.unit:
			return nil, fmt.Errorf("metric %s in %s, want %s", s.name, m.unit, s.unit)
		case !ok && !fill:
			return nil, fmt.Errorf("metric %s not reported", s.name)
		case !ok:
			m = metric{name: s.name, unit: s.unit, na: true}
		}
		delete(byName, s.name)
		out = append(out, m)
	}
	for name := range byName {
		return nil, fmt.Errorf("metric %s is not in the metric list", name)
	}
	return out, nil
}

// runAll runs every workload untraced then traced and prints the tracing
// overhead: the traced run's end-to-end metrics against the untraced run's.
func runAll(p params) int {
	status := 0
	for _, w := range workloads {
		var runs [2]*result
		for i, traced := range []bool{false, true} {
			// Let the previous run's goroutines exit so its memory is not
			// counted in this run's heap baseline.
			time.Sleep(50 * time.Millisecond)
			runtime.GC()
			q := p
			q.traced = traced
			start := time.Now()
			res, err := runOne(w.name, w.run, q)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			res.printText(os.Stdout, q.seed, q.seconds)
			fmt.Printf("(run took %.1f s)\n\n", time.Since(start).Seconds())
			if !res.correct() {
				status = 1
			}
			runs[i] = res
		}
		fmt.Printf("-- tracing overhead, %s (traced vs untraced)\n", w.name)
		for _, m := range runs[0].e2e {
			t, _ := runs[1].lookup(m.name)
			fmt.Printf("  %-28s %12.6g -> %12.6g %s  (%+.1f%%)\n", m.name, m.value, t.value, m.unit,
				100*(t.value/m.value-1))
		}
		fmt.Println()
	}
	if status != 0 {
		fmt.Println("perfbench: a correctness check failed")
	}
	return status
}
