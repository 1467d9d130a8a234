package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// fleet-100k shape.
const (
	fleetSessions = 100000
	// fleetWindow is the stream time one Advance covers: short enough that
	// a run holds tens of thousands of Advance calls, long enough (five
	// wheel ticks, ~1 ms of work on two workers) that the per-call barrier
	// stays a small share.
	fleetWindow = units.Seconds(0.05)
	// fleetDigestSeconds is the stream time the determinism digest covers.
	fleetDigestSeconds = 60
	// fleetFirstPerAdvance is the number of timed new sessions after each
	// Advance call; one untimed session before them warms the caches.
	fleetFirstPerAdvance = 3
	// The probe cohort replays its decisions through reference controllers.
	fleetProbeSessions = 2000
	fleetProbeSample   = 16
	fleetSetupReps     = 9
	// fleetLatencyWindow holds at least the thousand Advance calls a
	// window's p99 needs even when CPU steal doubles their wall time.
	fleetLatencyWindow = int64(5 * time.Second)
)

// fleetConfig is the fleet's default controller configuration (what
// sim.NewFleet uses for a nil Controller: production config, per-session
// memo off, compiled tables at quantum 0.5) with its own table set, so the
// benchmark can time the compile and replay decisions against the same
// tables.
func fleetConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize = 0
	cfg.DecisionTable = core.NewDecisionTables()
	cfg.TableQuantum = tableQuantum
	return cfg
}

func fleetParams(p params, sessions int, cfg *core.Config) sim.FleetConfig {
	return sim.FleetConfig{
		Sessions:   sessions,
		Workers:    p.procs,
		Ladder:     video.Mobile(),
		Controller: cfg,
		Profile:    tracegen.FourG(),
		Seed:       uint64(p.seed),
	}
}

type fleetState struct {
	f        *sim.Fleet
	cfg      core.Config
	watchdog *flightrec.Watchdog
	compileS float64
}

func setupFleet(p params) (*fleetState, error) {
	s := &fleetState{cfg: fleetConfig(), watchdog: flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})}
	start := nowNS()
	if _, err := s.cfg.DecisionTable.CompileTable(s.cfg, video.Mobile(), units.Seconds(bufferCap)); err != nil {
		return nil, err
	}
	s.compileS = float64(nowNS()-start) / 1e9
	fc := fleetParams(p, fleetSessions, &s.cfg)
	fc.Watchdog = s.watchdog // as soda-sim -fleet attaches one
	f, err := sim.NewFleet(fc)
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// fleetStats sums every session controller's solver counters.
func fleetStats(f *sim.Fleet, sessions int) core.SolveStats {
	var total core.SolveStats
	for i := 0; i < sessions; i++ {
		if ctrl, _, ok := f.Session(i); ok {
			total = addStats(total, ctrl.SolveStats())
		}
	}
	return total
}

func addStats(a, b core.SolveStats) core.SolveStats {
	return core.SolveStats{
		Solves: a.Solves + b.Solves, Nodes: a.Nodes + b.Nodes,
		MemoLookups: a.MemoLookups + b.MemoLookups, MemoHits: a.MemoHits + b.MemoHits,
		SharedLookups: a.SharedLookups + b.SharedLookups, SharedHits: a.SharedHits + b.SharedHits,
		TableLookups: a.TableLookups + b.TableLookups, TableHits: a.TableHits + b.TableHits,
		TableFallbacks: a.TableFallbacks + b.TableFallbacks,
	}
}

// probeFleet runs a small cohort with the same configuration and seed for
// 60 stream-seconds with telemetry on, returning its report and every
// decision it made.
func probeFleet(p params, cfg *core.Config) (sim.FleetReport, []telemetry.DecisionEvent, error) {
	col := telemetry.NewCollector(nil, 1<<17)
	fc := fleetParams(p, fleetProbeSessions, cfg)
	fc.Telemetry = col
	f, err := sim.NewFleet(fc)
	if err != nil {
		return sim.FleetReport{}, nil, err
	}
	f.Advance(fleetDigestSeconds)
	rep := f.Report()
	f.Close() // flushes the per-session recorders into the ring
	if total := col.Ring.Total(); total != rep.Decisions {
		return rep, nil, fmt.Errorf("probe fleet recorded %d of %d decisions", total, rep.Decisions)
	}
	return rep, col.Ring.Snapshot(), nil
}

// replayCtx rebuilds the decision context a fleet decision event was made
// from (sim's fleetWorker.fire).
func replayCtx(ev telemetry.DecisionEvent, ladder video.Ladder) (*abr.Context, int) {
	omega := ev.Throughput
	seg := int(ev.Segment)
	want := int(ev.Rung)
	if want != abr.NoRung {
		seg-- // the event is stamped after the download advanced the segment
	}
	return &abr.Context{
		Now:            ev.AtSeconds,
		Buffer:         ev.Buffer,
		BufferCap:      units.Seconds(bufferCap),
		PrevRung:       int(ev.PrevRung),
		Ladder:         ladder,
		SegmentIndex:   seg,
		TotalSegments:  1 << 20,
		LastThroughput: omega,
		Predict:        func(units.Seconds) units.Mbps { return omega },
	}, want
}

func runFleet(p params) (*result, error) {
	r := &result{}
	ladder := video.Mobile()
	var heapBase uint64
	setupS, s, err := medianSetup(fleetSetupReps, func() (*fleetState, error) { return setupFleet(p) },
		func(s *fleetState) { s.f.Close() }, &heapBase)
	if err != nil {
		return nil, err
	}
	defer s.f.Close()
	heapPerSession := float64(int64(liveHeap())-int64(heapBase)) / fleetSessions

	// The probe cohort's first decisions are the contexts new sessions start
	// from: the timed phase starts a few new sessions after every Advance,
	// so the samples spread over the whole run like the fleet's own work.
	probe, events, err := probeFleet(p, &s.cfg)
	if err != nil {
		return nil, err
	}
	var firstCtx []*abr.Context
	for _, ev := range events {
		if ev.PrevRung == abr.NoRung && ev.Segment <= 1 {
			ctx, _ := replayCtx(ev, ladder)
			firstCtx = append(firstCtx, ctx)
		}
	}
	fresh := make([]core.Controller, len(firstCtx))
	first := make([]int64, 0, fleetFirstPerAdvance*40000*p.seconds)
	starts := 0
	runtime.GC()

	var statsBefore core.SolveStats
	if p.traced {
		statsBefore = fleetStats(s.f, fleetSessions)
	}
	incBefore := incidentCounts(s.watchdog)
	repBefore := s.f.Report()
	rtBefore := readRuntime()
	advances := make([]int64, 0, 40000*p.seconds) // wall time of each Advance
	doneAt := make([]int64, 0, 40000*p.seconds)   // when each Advance returned
	made := make([]int64, 0, 40000*p.seconds)     // decisions each Advance made
	var digest *sim.FleetReport
	last := repBefore.Decisions
	start := nowNS()
	end := start + int64(p.seconds)*1e9
	for t := nowNS(); t < end; {
		s.f.Advance(fleetWindow)
		now := nowNS()
		rep := s.f.Report()
		advances = append(advances, now-t)
		doneAt = append(doneAt, now)
		made = append(made, int64(rep.Decisions-last))
		last = rep.Decisions
		if digest == nil && len(advances) == int(fleetDigestSeconds/fleetWindow) {
			digest = &rep
		}
		// New sessions: Init+Prewarm and the first decide on a fresh
		// controller slot, timed together, outside the Advance timings. The
		// first one after an Advance runs untimed: it would mostly time the
		// cache misses the Advance left behind, which track how busy the
		// host's memory is rather than the start-up path.
		for k := 0; k <= fleetFirstPerAdvance; k++ {
			i := starts % len(fresh)
			starts++
			t0 := nowNS()
			fresh[i].Init(s.cfg, ladder)
			fresh[i].Prewarm(units.Seconds(bufferCap))
			fresh[i].Decide(firstCtx[i])
			t = nowNS()
			if k > 0 {
				first = append(first, t-t0)
			}
		}
	}
	wall := float64(nowNS()-start) / 1e9
	rtAfter := readRuntime()
	repAfter := s.f.Report()
	decisions := int64(repAfter.Decisions - repBefore.Decisions)
	r.attempted = decisions

	r.add(metric{name: "setup_s", value: setupS, unit: "s", n: fleetSetupReps})
	stop := start + int64(wall*1e9)
	// Each Advance call's own rate, decisions over its wall time: steal
	// that lands on either worker stalls the whole call at its barrier, so
	// the calls it misses show the fleet's speed (see fastRate).
	perAdvance := make([]float64, len(advances))
	for i, ns := range advances {
		perAdvance[i] = float64(made[i]) / (float64(ns) / 1e9)
	}
	rate := fastRate(perAdvance)
	p99s := windows(doneAt, advances, start, stop, fleetLatencyWindow, p99Window)
	p99 := fastLatency(p99s)
	r.add(metric{name: "decisions_per_s", value: rate, unit: "1/s", n: len(advances)})
	r.layer(metric{name: "decide_p50_ms", unit: "ms", n: len(advances),
		value: fastLatency(windows(doneAt, advances, start, stop, fleetLatencyWindow, p50Window)) / 1e6})
	r.layer(metric{name: "decide_p99_ms", value: p99 / 1e6, unit: "ms", n: len(advances)})
	r.expect("decide_p99_ms-support", !math.IsNaN(p99),
		"%d five-second windows, at least one with ten Advance calls beyond its p99", len(p99s))
	r.latencyMetrics("first_decide_p50_us", "first_decide_p99_us", "us", 1e3, summarize(first))
	r.add(metric{name: "heap_bytes_per_session", value: heapPerSession, unit: "B"})

	// Correctness: the probe cohort's decisions replayed through a reference
	// controller, and the probe rerun to the same totals.
	var sample []served
	for i := 0; i < len(events); i += fleetProbeSample {
		ctx, want := replayCtx(events[i], ladder)
		sample = append(sample, served{buffer: float64(ctx.Buffer), throughput: float64(ctx.LastThroughput),
			prev: ctx.PrevRung, segment: ctx.SegmentIndex, rung: want})
	}
	mism, firstBad := referenceMismatches(ladder, tableQuantum, sample)
	r.expect("reference-replay", mism == 0 && len(sample) > 0,
		"%d sampled decisions, %d differ from the reference controller %s", len(sample), mism, firstBad)
	again, _, err := probeFleet(p, &s.cfg)
	if err != nil {
		return nil, err
	}
	r.expect("deterministic", again.Decisions == probe.Decisions && again.Segments == probe.Segments &&
		again.StallSeconds == probe.StallSeconds,
		"probe cohort: %d decisions, %d segments, %.6f s stall on both runs", probe.Decisions, probe.Segments,
		float64(probe.StallSeconds))
	r.expect("first-decides", len(firstCtx) == fleetProbeSessions, "%d of %d probe sessions", len(firstCtx), fleetProbeSessions)
	if digest != nil {
		r.note("digest after %d stream-seconds: decisions=%d segments=%d waits=%d stall=%.6f s",
			fleetDigestSeconds, digest.Decisions, digest.Segments, digest.Waits, float64(digest.StallSeconds))
	}

	if p.traced {
		d := fleetStats(s.f, fleetSessions).Delta(statsBefore)
		r.solverLayers(d)
		hitNS, fallbackNS := replayArm(s.cfg, ladder, events)
		advanceNS := wall * 1e9 / float64(decisions)
		hitRatio := float64(d.TableHits) / float64(max(d.TableLookups, 1))
		coreNS := hitRatio*hitNS + (1-hitRatio)*fallbackNS
		r.layer(metric{name: "core.table_hit_ns", unit: "ns", value: hitNS})
		r.layer(metric{name: "core.fallback_ns", unit: "ns", value: fallbackNS})
		r.layer(metric{name: "core.table_compile_s", unit: "s", value: s.compileS})
		r.layer(metric{name: "core.init_prewarm_us", unit: "us", value: initPrewarmUS(s.cfg, ladder, 2000), n: 2000})
		r.layer(metric{name: "sim.advance_ns_per_decision", unit: "ns", value: advanceNS})
		r.layer(metric{name: "sim.wheel_player_self_ns", unit: "ns", value: advanceNS*float64(p.procs) - coreNS})
		r.layer(metric{name: "sim.decisions", unit: "count", value: float64(decisions)})
		r.layer(metric{name: "sim.waits", unit: "count", value: float64(repAfter.Waits - repBefore.Waits)})
		r.layer(metric{name: "sim.segments", unit: "count", value: float64(repAfter.Segments - repBefore.Segments)})
		r.layer(metric{name: "sim.stall_s", unit: "s", value: float64(repAfter.StallSeconds - repBefore.StallSeconds)})
		ar := repAfter.Arena
		r.layer(metric{name: "arena.live", unit: "count", value: float64(ar.Live)})
		r.layer(metric{name: "arena.slabs", unit: "count", value: float64(ar.Slabs)})
		r.layer(metric{name: "arena.allocs", unit: "count", value: float64(ar.Allocs)})
		r.layer(metric{name: "arena.frees", unit: "count", value: float64(ar.Frees)})
		r.incidentLayers(incBefore, incidentCounts(s.watchdog), fleetSessions)
		r.runtimeLayers(rtBefore, rtAfter, decisions)
		_, trMS, err := tracePool(tracegen.FourG(), 256, units.Seconds(120), p.seed)
		if err != nil {
			return nil, err
		}
		r.layer(metric{name: "tracegen.session_ms", unit: "ms", value: trMS, n: 256})
		r.ledgerWhat = "Advance wall time per decision per worker"
		r.ledgerE2EUS = advanceNS * float64(p.procs) / 1e3
		r.ledger = []ledgerRow{
			{"core table hits", hitRatio * hitNS / 1e3, "replay arm, weighted by the hit ratio"},
			{"core fallbacks", (1 - hitRatio) * fallbackNS / 1e3, "replay arm, weighted by the miss ratio"},
			{"sim wheel + player step", (advanceNS*float64(p.procs) - coreNS) / 1e3, "remainder"},
		}
	}
	return r, nil
}

// replayArm re-runs a sample of the fleet's decision contexts through a
// controller with the fleet's configuration and returns the mean time of a
// table hit and of a solver fallback, each timed over batches so the clock
// read is amortised.
func replayArm(cfg core.Config, ladder video.Ladder, events []telemetry.DecisionEvent) (hitNS, fallbackNS float64) {
	ctrl := core.New(cfg, ladder)
	ctrl.Prewarm(units.Seconds(bufferCap))
	var hits, fallbacks []*abr.Context
	for i := 0; i < len(events); i += fleetProbeSample {
		ctx, _ := replayCtx(events[i], ladder)
		before := ctrl.SolveStats()
		ctrl.Decide(ctx)
		d := ctrl.SolveStats().Delta(before)
		switch {
		case d.TableHits == 1:
			hits = append(hits, ctx)
		case d.TableFallbacks == 1:
			fallbacks = append(fallbacks, ctx)
		}
	}
	timeBatch := func(ctxs []*abr.Context, reps int) float64 {
		if len(ctxs) == 0 {
			return 0
		}
		start := nowNS()
		for r := 0; r < reps; r++ {
			for _, ctx := range ctxs {
				ctrl.Decide(ctx)
			}
		}
		return float64(nowNS()-start) / float64(reps*len(ctxs))
	}
	return timeBatch(hits, 200), timeBatch(fallbacks, 20)
}
