package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// bufferCap is the player buffer cap every workload uses (soda-server's
// default /decide cap and the simulators' default).
const bufferCap = 20.0

// tableQuantum is the decision-table quantum soda-server and the fleet use.
const tableQuantum = 0.5

// tracePool synthesizes n throughput traces of the profile, the inputs the
// virtual players walk, and returns them with the mean synthesis time per
// trace in milliseconds.
func tracePool(profile tracegen.Profile, n int, length units.Seconds, seed int64) ([][]units.Mbps, float64, error) {
	pool := make([][]units.Mbps, n)
	start := nowNS()
	for i := range pool {
		tr, err := profile.Session(length, uint64(seed), i)
		if err != nil {
			return nil, 0, fmt.Errorf("synthesizing trace %d: %w", i, err)
		}
		samples := tr.Samples()
		mbps := make([]units.Mbps, len(samples))
		for j, s := range samples {
			mbps[j] = s.Mbps
		}
		pool[i] = mbps
	}
	return pool, float64(nowNS()-start) / 1e6 / float64(n), nil
}

// viewer is one virtual player's client-side state: the player model of
// internal/loadgen (a decision downloads a segment at the trace's current
// throughput or drains the buffer for the advised wait).
type viewer struct {
	key     string
	trace   []units.Mbps
	cursor  int
	buffer  float64
	prev    int
	segment int
}

func newViewer(key string, trace []units.Mbps, cursor int) viewer {
	return viewer{key: key, trace: trace, cursor: cursor, prev: abr.NoRung}
}

// nextThroughput pulls the viewer's next throughput sample (Mb/s).
func (v *viewer) nextThroughput() float64 {
	w := float64(v.trace[v.cursor%len(v.trace)])
	v.cursor++
	return w
}

// apply advances the player by one served decision.
func (v *viewer) apply(ladder video.Ladder, rung int, waitS, throughput float64) {
	segment := float64(ladder.SegmentSeconds)
	if rung >= 0 {
		thr := throughput
		if thr < 0.1 {
			thr = 0.1 // a stalled link still finishes the download eventually
		}
		v.buffer += segment - float64(ladder.Mbps(rung))*segment/thr
		v.prev = rung
		v.segment++
	} else {
		v.buffer -= waitS
	}
	v.buffer = min(max(v.buffer, 0), bufferCap)
}

// served is one served decision kept for the reference replay: the state the
// request carried and the rung the service answered.
type served struct {
	buffer, throughput float64
	prev, segment      int
	rung               int
}

// replaySample is every how-manyth served decision the correctness check
// replays.
const replaySample = 64

// referenceMismatches replays served decisions through a reference
// controller — no decision table, no shared cache, its memo flushed before
// every decision so each one is solved, quantizing at the service's table
// quantum — and returns how many disagree with the served rung.
func referenceMismatches(ladder video.Ladder, quantum float64, sample []served) (int, string) {
	cfg := core.DefaultConfig()
	cfg.MemoQuantum = quantum
	ref := core.New(cfg, ladder)
	bad, first := 0, ""
	for _, s := range sample {
		omega := units.Mbps(s.throughput)
		ctx := &abr.Context{
			Buffer:         units.Seconds(s.buffer),
			BufferCap:      units.Seconds(bufferCap),
			PrevRung:       s.prev,
			Ladder:         ladder,
			SegmentIndex:   s.segment,
			TotalSegments:  1 << 20,
			LastThroughput: omega,
			Predict:        func(units.Seconds) units.Mbps { return omega },
		}
		ref.Reset()
		want := ref.Decide(ctx).Rung
		if want != abr.NoRung {
			want = ladder.ClampIndex(want)
		}
		if want != s.rung {
			if bad == 0 {
				first = fmt.Sprintf("buffer=%g throughput=%g prev=%d: served %d, reference %d",
					s.buffer, s.throughput, s.prev, s.rung, want)
			}
			bad++
		}
	}
	return bad, first
}

// stack is one /decide service with the observability soda-server attaches
// to it: telemetry collector, flight recorder and QoE watchdog.
type stack struct {
	svc      *httpseg.DecideService
	col      *telemetry.Collector
	flight   *flightrec.Recorder
	watchdog *flightrec.Watchdog
}

// newStack builds the service the way soda-server's introspectionMux does.
func newStack(ladder video.Ladder, opts httpseg.DecideOptions) (*stack, error) {
	col := telemetry.NewCollector(nil, telemetry.DefaultRingCapacity)
	st := &stack{
		col:      col,
		flight:   flightrec.NewRecorder(col.Registry, 0),
		watchdog: flightrec.NewWatchdog(col.Registry, flightrec.WatchdogConfig{}),
	}
	opts.FlightRecorder, opts.Watchdog = st.flight, st.watchdog
	svc, err := httpseg.NewDecideService(ladder, opts, col)
	if err != nil {
		return nil, err
	}
	st.svc = svc
	return st, nil
}

// solverCounts reads the collector's solver-work counters.
func solverCounts(col *telemetry.Collector) core.SolveStats {
	v := func(c *telemetry.Counter) uint64 { return uint64(c.Value()) }
	return core.SolveStats{
		Solves: v(col.Solves), Nodes: v(col.Nodes),
		MemoLookups: v(col.MemoLookups), MemoHits: v(col.MemoHits),
		SharedLookups: v(col.SharedLookups), SharedHits: v(col.SharedHits),
		TableLookups: v(col.TableLookups), TableHits: v(col.TableHits),
		TableFallbacks: v(col.TableFallbacks),
	}
}

// solverLayers adds the SolveStats delta of a timed phase, every ratio with
// its base.
func (r *result) solverLayers(d core.SolveStats) {
	ratio := func(hits, lookups uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(hits) / float64(lookups)
	}
	r.layer(metric{name: "core.table_lookups", unit: "count", value: float64(d.TableLookups)})
	r.layer(metric{name: "core.table_hit_ratio", unit: "ratio", value: ratio(d.TableHits, d.TableLookups),
		base: itoa(int64(d.TableLookups)) + " table lookups"})
	r.layer(metric{name: "core.table_fallbacks", unit: "count", value: float64(d.TableFallbacks)})
	r.layer(metric{name: "core.solves", unit: "count", value: float64(d.Solves)})
	r.layer(metric{name: "core.nodes_per_solve", unit: "count", value: ratio(d.Nodes, d.Solves),
		base: itoa(int64(d.Solves)) + " solves"})
	r.layer(metric{name: "core.memo_lookups", unit: "count", value: float64(d.MemoLookups)})
	r.layer(metric{name: "core.memo_hit_ratio", unit: "ratio", value: ratio(d.MemoHits, d.MemoLookups),
		base: itoa(int64(d.MemoLookups)) + " memo lookups"})
	r.layer(metric{name: "core.shared_lookups", unit: "count", value: float64(d.SharedLookups)})
	r.layer(metric{name: "core.shared_hit_ratio", unit: "ratio", value: ratio(d.SharedHits, d.SharedLookups),
		base: itoa(int64(d.SharedLookups)) + " shared-cache lookups"})
}

// incidentCounts reads the watchdog's per-kind totals.
func incidentCounts(w *flightrec.Watchdog) [3]uint64 {
	return [3]uint64{
		w.Count(flightrec.KindOscillation),
		w.Count(flightrec.KindStall),
		w.Count(flightrec.KindUnderrunRisk),
	}
}

// incidentLayers adds the incidents of a timed phase per 1000 sessions.
func (r *result) incidentLayers(before, after [3]uint64, sessions int) {
	names := []string{"flightrec.oscillation_per_1k_sessions", "flightrec.stall_per_1k_sessions",
		"flightrec.underrun_risk_per_1k_sessions"}
	var total uint64
	base := itoa(int64(sessions)) + " sessions"
	for i, n := range names {
		d := after[i] - before[i]
		total += d
		r.layer(metric{name: n, unit: "count", value: flightrec.PerThousandSessions(d, sessions), base: base})
	}
	r.layer(metric{name: "flightrec.incidents_per_1k_sessions", unit: "count",
		value: flightrec.PerThousandSessions(total, sessions), base: base})
}

// spanSampler collects the flight recorder's stage spans during a timed
// phase. The recorder keeps the last few thousand spans per stage in rings;
// sampling them often enough that no ring laps between two samples, and
// dropping spans already seen in the previous sample, yields every span of
// the phase (or a uniform sample of it when the rings do lap).
type spanSampler struct {
	rec   *flightrec.Recorder
	since int64 // recorder clock at the start of the phase
	prev  map[spanKey]struct{}
	spans [flightrec.NumStages][]flightrec.Span
}

// spanSampleEvery is how often a traced run samples the span rings: at the
// serving workloads' decide rates (tens of thousands per second) the
// 4096-span rings lap in about a tenth of a second.
const spanSampleEvery = 50 * time.Millisecond

type spanKey struct {
	stage   flightrec.Stage
	start   int64
	session int32
}

func newSpanSampler(rec *flightrec.Recorder) *spanSampler {
	return &spanSampler{rec: rec, since: rec.Now()}
}

func (s *spanSampler) sample() {
	snap := s.rec.Snapshot()
	cur := make(map[spanKey]struct{}, len(snap))
	for _, sp := range snap {
		if sp.Start < s.since {
			continue
		}
		k := spanKey{sp.Stage, sp.Start, sp.Session}
		cur[k] = struct{}{}
		if _, seen := s.prev[k]; seen {
			continue
		}
		s.spans[sp.Stage] = append(s.spans[sp.Stage], sp)
	}
	s.prev = cur
}

// durations returns the durations (ns) of a stage's sampled spans that keep
// returns true for.
func (s *spanSampler) durations(stage flightrec.Stage, keep func(flightrec.Span) bool) []int64 {
	var out []int64
	for _, sp := range s.spans[stage] {
		if keep == nil || keep(sp) {
			out = append(out, sp.Dur)
		}
	}
	return out
}

// meanNS is the mean of a stage's sampled span durations.
func (s *spanSampler) meanNS(stage flightrec.Stage) float64 {
	return summarize(s.durations(stage, nil)).mean
}

// stageLayers adds the per-stage span metrics common to both serving
// workloads. isCreate classifies a session-stage span as a session creation.
func (r *result) stageLayers(s *spanSampler, isCreate func(flightrec.Span) bool) {
	admit := s.meanNS(flightrec.StageRateLimit) + s.meanNS(flightrec.StageInflight)
	r.layer(metric{name: "sessiontable.admit_us", unit: "us", value: admit / 1e3,
		n: len(s.spans[flightrec.StageInflight])})
	steady := summarize(s.durations(flightrec.StageSession, func(sp flightrec.Span) bool { return !isCreate(sp) }))
	r.layer(metric{name: "sessiontable.acquire_steady_p50_us", unit: "us", value: float64(steady.p50) / 1e3, n: steady.n})
	if create := summarize(s.durations(flightrec.StageSession, isCreate)); create.n > 0 {
		r.layer(metric{name: "sessiontable.acquire_create_p50_us", unit: "us", value: float64(create.p50) / 1e3, n: create.n})
		if create.beyond99 >= 10 {
			r.layer(metric{name: "sessiontable.acquire_create_p99_us", unit: "us", value: float64(create.p99) / 1e3, n: create.n})
		}
	}
	arenaS := summarize(s.durations(flightrec.StageArena, nil))
	r.layer(metric{name: "arena.session_p50_us", unit: "us", value: float64(arenaS.p50) / 1e3, n: arenaS.n})
	dec := summarize(s.durations(flightrec.StageDecide, nil))
	r.layer(metric{name: "core.decide_p50_us", unit: "us", value: float64(dec.p50) / 1e3, n: dec.n})
	r.layer(metric{name: "core.decide_p99_us", unit: "us", value: float64(dec.p99) / 1e3, n: dec.n})
}

// stageLedger returns the ledger rows of the service's own pipeline, from
// the mean span durations: admission, session acquire, arena resolution,
// the controller decide, and the rest of the Decide call (telemetry and
// watchdog recording, unlock and release), which is the respond span minus
// the stages inside it.
func stageLedger(s *spanSampler) []ledgerRow {
	admit := s.meanNS(flightrec.StageRateLimit) + s.meanNS(flightrec.StageInflight)
	sess := s.meanNS(flightrec.StageSession)
	ar := s.meanNS(flightrec.StageArena)
	dec := s.meanNS(flightrec.StageDecide)
	rest := s.meanNS(flightrec.StageRespond) - admit - sess - ar - dec
	return []ledgerRow{
		{"sessiontable admit", admit / 1e3, "ratelimit+inflight spans"},
		{"sessiontable acquire", sess / 1e3, "session span"},
		{"arena", ar / 1e3, "arena span"},
		{"core decide", dec / 1e3, "decide span"},
		{"httpseg decide self", rest / 1e3, "respond span minus the stages in it"},
	}
}

// initPrewarmUS times Init+Prewarm on fresh controllers of cfg, in
// microseconds per controller.
func initPrewarmUS(cfg core.Config, ladder video.Ladder, n int) float64 {
	ctrls := make([]core.Controller, n)
	start := nowNS()
	for i := range ctrls {
		ctrls[i].Init(cfg, ladder)
		ctrls[i].Prewarm(units.Seconds(bufferCap))
	}
	return float64(nowNS()-start) / 1e3 / float64(n)
}

// compileSeconds times compiling the decision table of cfg into its
// (fresh) table set.
func compileSeconds(cfg core.Config, ladder video.Ladder) (float64, error) {
	start := nowNS()
	if _, err := cfg.DecisionTable.CompileTable(cfg, ladder, units.Seconds(bufferCap)); err != nil {
		return 0, err
	}
	return float64(nowNS()-start) / 1e9, nil
}

// serviceConfig is the controller configuration DecideService gives its
// sessions for these options (httpseg's sessionConfig), with a fresh table
// set: the configuration the compile and init/prewarm timings use, in that
// order, so Prewarm binds the already compiled table.
func serviceConfig(opts httpseg.DecideOptions) core.Config {
	cfg := core.DefaultConfig()
	if opts.CacheEntries > 0 {
		cfg.SharedCache = core.NewSolveCache(opts.CacheEntries)
	}
	cfg.DecisionTable = core.NewDecisionTables()
	cfg.TableQuantum = opts.TableQuantum
	if opts.SessionMemoEntries < 0 {
		cfg.SolveMemoSize = 0
	}
	return cfg
}
