// Fleet mode: advance hundreds of thousands of virtual players on a fixed
// worker pool, using a hierarchical time-wheel over segment-completion
// events instead of one goroutine (or one full Run loop) per session.
//
// Every fleet session steps through the same player kernel as Run (step.go):
// the same wait clamp, the same drain-then-deposit stall accounting with
// startup kept apart, the same idle-until-the-next-segment-fits cap. Two
// things are still modelled differently. The network is per sample: a
// download occupies bitrate·L/ω seconds against the session's current
// throughput sample, drawn from a shared TracePool, rather than integrating
// a piecewise trace with latency, live edge and abandonment. And the
// prediction is an oracle: the controller is told that same sample as its
// forecast. Both keep one host able to hold the whole cohort's state in
// struct-of-arrays arenas and touch only the sessions whose next event is
// due. Controllers are the real thing — every session runs its own
// core.Controller out of the arena slab, sharing the fleet decision tables
// and solve cache — so fleet cohorts exercise exactly the production decide
// path.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// FleetConfig parameterises a fleet cohort.
type FleetConfig struct {
	// Sessions is the concurrent virtual-player count.
	Sessions int
	// Workers is the fixed worker-pool size; each worker exclusively owns
	// one arena shard of sessions and its own time-wheel, so the steady
	// decide path takes no locks. Non-positive derives it from GOMAXPROCS.
	Workers int
	// Ladder is the bitrate ladder every session streams. Required.
	Ladder video.Ladder
	// BufferCap is the player buffer cap (default 20 s).
	BufferCap units.Seconds
	// Controller configures every session's controller. Nil gets the fleet
	// defaults: production config, per-session memo disabled (the shared
	// decision tables carry the hot path; per-session memory is what limits
	// cohort size), compiled tables at quantum 0.5.
	Controller *core.Config
	// Profile calibrates the per-session throughput process; the zero value
	// means tracegen.Puffer().
	Profile tracegen.Profile
	// TracePool bounds the distinct traces synthesized and shared
	// round-robin across sessions (default min(Sessions, 256)).
	TracePool int
	// SessionLength is the synthesized trace length (default 120 s; samples
	// wrap, so sessions are effectively endless).
	SessionLength units.Seconds
	// Seed makes trace synthesis — and therefore the whole cohort —
	// reproducible.
	Seed uint64
	// TickSeconds is the time-wheel granularity (default 10 ms). Events
	// quantize up to the next tick boundary.
	TickSeconds units.Seconds
	// Telemetry, when non-nil, receives one DecisionEvent per decision via
	// per-session pooled recorders bound into the cohort's arena slots.
	// Nil (the benchmark configuration) records nothing and keeps the
	// steady path allocation-free.
	Telemetry *telemetry.Collector
	// Watchdog, when non-nil, observes every decision with the QoE-
	// consistency detectors. Per-session detector state lives in the
	// cohort's arena slots (one flightrec.SessionWatch per slab entry), so
	// attaching a watchdog allocates nothing on the steady path; incident
	// totals surface through FleetReport. Independent of Telemetry.
	Watchdog *flightrec.Watchdog
}

// FleetReport aggregates a cohort's progress counters.
type FleetReport struct {
	Sessions  int
	Workers   int
	Decisions uint64
	Waits     uint64
	Segments  uint64
	// StallSeconds is cumulative rebuffer time across the cohort.
	StallSeconds units.Seconds
	// SimSeconds is the stream-clock time the cohort has advanced through.
	SimSeconds units.Seconds
	// Incidents is the cohort's total QoE-watchdog incident count (zero
	// when no watchdog is attached); IncidentsPerThousand is the same
	// normalized per 1000 sessions — the gate-schema denomination.
	Incidents            uint64
	IncidentsPerThousand float64
	Arena                arena.Stats
}

// Time-wheel geometry: two levels of 256 buckets. At the default 10 ms tick
// the inner wheel spans 2.56 s (one segment-download cadence) and the outer
// 655 s; events beyond the outer span park in their outer bucket and lap.
const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	noSession  = ^uint32(0)
)

// wheel is one worker's hierarchical time-wheel over the sessions of its
// arena shard, addressed by local index (arena.At). Buckets chain sessions
// intrusively through their arena State.Next links, so scheduling allocates
// nothing; State.DueTick disambiguates bucket collisions on expiry.
type wheel struct {
	now   uint32 // current tick
	ar    *arena.Arena
	shard int
	l0    [wheelSlots]uint32
	l1    [wheelSlots]uint32
}

func (w *wheel) init(ar *arena.Arena, shard int) {
	w.ar, w.shard = ar, shard
	for i := range w.l0 {
		w.l0[i] = noSession
		w.l1[i] = noSession
	}
}

// state resolves session `local`'s player state in the wheel's shard.
func (w *wheel) state(local uint32) *arena.State {
	_, st, _ := w.ar.At(w.shard, local)
	return st
}

// schedule parks session `local`, whose state is st, to fire at absolute
// tick `due` (clamped to the future — the wheel cannot fire in the past).
func (w *wheel) schedule(st *arena.State, local uint32, due uint32) {
	if due <= w.now {
		due = w.now + 1
	}
	st.DueTick = due
	var bucket *uint32
	if due-w.now < wheelSlots {
		bucket = &w.l0[due&wheelMask]
	} else {
		bucket = &w.l1[(due>>wheelBits)&wheelMask]
	}
	st.Next = *bucket
	*bucket = local
}

// advance runs the wheel forward to absolute tick `to`, invoking fire for
// every due session at its due tick. fire may (and does) reschedule.
func (w *wheel) advance(to uint32, fire func(local uint32, tick uint32)) {
	for w.now < to {
		w.now++
		tick := w.now
		if tick&wheelMask == 0 {
			// Entering a new outer-wheel slot: cascade its chain. Sessions
			// due at the boundary tick itself fire now (re-parking would
			// clamp them a tick late); sessions due within the new inner
			// span re-park in level 0; sessions lapping the outer span land
			// back in level 1.
			slot := (tick >> wheelBits) & wheelMask
			chain := w.l1[slot]
			w.l1[slot] = noSession
			for chain != noSession {
				st := w.state(chain)
				next := st.Next
				if st.DueTick == tick {
					fire(chain, tick)
				} else {
					w.schedule(st, chain, st.DueTick)
				}
				chain = next
			}
		}
		chain := w.l0[tick&wheelMask]
		w.l0[tick&wheelMask] = noSession
		for chain != noSession {
			st := w.state(chain)
			next := st.Next
			if st.DueTick == tick {
				fire(chain, tick)
			} else {
				// Bucket collision from a cascade: not due yet, re-park.
				w.schedule(st, chain, st.DueTick)
			}
			chain = next
		}
	}
}

// constPredictor is the per-worker constant-throughput predictor. Binding
// ctx.Predict to its method value once at worker setup — and mutating omega
// per decision — avoids the per-decision closure allocation the
// single-session simulator pays.
type constPredictor struct{ omega units.Mbps }

func (p *constPredictor) predict(units.Seconds) units.Mbps { return p.omega }

// fleetWorker owns one arena shard of sessions and drives their wheel.
// Its n sessions fill slots [0, n) of the shard densely and stay live for
// the cohort's lifetime, so under the shard-ownership contract a session's
// local index is its arena slot: the per-decision path resolves controller,
// state and watch with one arena.At, not handle validation or a pointer
// table per session.
type fleetWorker struct {
	f      *Fleet
	shard  int
	base   int // global index of this worker's first session
	n      int // sessions in this worker's shard
	recs   []*telemetry.SessionRecorder
	wheel  wheel
	ctx    abr.Context
	pred   constPredictor
	fireFn func(local uint32, tick uint32) // w.fire, bound once at setup

	decisions uint64
	waits     uint64
	segments  uint64
	stall     units.Seconds

	cmd chan uint32 // absolute target tick per Advance
}

// Fleet is a cohort of virtual players advancing in simulated time. Build
// with NewFleet, drive with Advance, read with Report, release with Close.
// Methods are not safe for concurrent use with each other.
type Fleet struct {
	cfg     FleetConfig
	arena   *arena.Arena
	pool    TracePool
	player  Player
	workers []*fleetWorker
	ticks   uint32 // absolute cohort clock, in wheel ticks
	barrier sync.WaitGroup
	closed  bool
}

// fleetControllerConfig is the default controller configuration for fleet
// cohorts; exported through NewFleet's nil-Controller behaviour.
func fleetControllerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize = 0
	cfg.DecisionTable = core.NewDecisionTables()
	cfg.TableQuantum = 0.5
	return cfg
}

// NewFleet builds the cohort: synthesizes the trace pool, carves the arena
// into per-worker shards, seats every session's controller and player state
// in its slot, schedules first events staggered across one segment duration,
// and parks the worker pool. No decisions run until Advance.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Sessions < 1 {
		return nil, errors.New("sim: fleet needs at least one session")
	}
	if cfg.Ladder.Len() == 0 {
		return nil, errors.New("sim: fleet needs a non-empty ladder")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Sessions {
		cfg.Workers = cfg.Sessions
	}
	if cfg.Workers > 256 {
		cfg.Workers = 256 // the arena's shard-addressing bound
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = units.Seconds(20)
	}
	if cfg.BufferCap < cfg.Ladder.SegmentSeconds {
		return nil, fmt.Errorf("sim: fleet buffer cap %v below one segment (%v s)",
			cfg.BufferCap, cfg.Ladder.SegmentSeconds)
	}
	if cfg.TickSeconds <= 0 {
		cfg.TickSeconds = units.Seconds(0.01)
	}
	ctrlCfg := fleetControllerConfig()
	if cfg.Controller != nil {
		ctrlCfg = *cfg.Controller
	}
	if err := ctrlCfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: fleet controller config: %w", err)
	}

	pool, err := NewTracePool(cfg.Profile, cfg.SessionLength, cfg.Seed, cfg.TracePool, cfg.Sessions)
	if err != nil {
		return nil, fmt.Errorf("sim: fleet: %w", err)
	}
	f := &Fleet{
		cfg:    cfg,
		pool:   pool,
		player: Player{Segment: cfg.Ladder.SegmentSeconds, BufferCap: cfg.BufferCap, Startup: 1},
	}

	perShard := (cfg.Sessions + cfg.Workers - 1) / cfg.Workers
	f.arena = arena.New(cfg.Workers, perShard)

	// First events stagger across one segment duration so the cohort does
	// not thunder onto a single tick.
	ticksPerSegment := uint32(float64(cfg.Ladder.SegmentSeconds) / float64(cfg.TickSeconds))
	if ticksPerSegment < 1 {
		ticksPerSegment = 1
	}

	f.workers = make([]*fleetWorker, cfg.Workers)
	next := 0
	for wi := range f.workers {
		n := cfg.Sessions / cfg.Workers
		if wi < cfg.Sessions%cfg.Workers {
			n++
		}
		w := &fleetWorker{
			f:     f,
			shard: wi,
			base:  next,
			n:     n,
			cmd:   make(chan uint32),
		}
		w.wheel.init(f.arena, wi)
		if cfg.Telemetry != nil {
			w.recs = make([]*telemetry.SessionRecorder, n)
		}
		for local := 0; local < n; local++ {
			global := next + local
			h, ok := f.arena.Alloc(wi)
			if !ok {
				return nil, fmt.Errorf("sim: fleet arena exhausted at session %d", global)
			}
			if h.Index() != uint32(local) {
				return nil, fmt.Errorf("sim: fleet session %d landed in slot %d of a fresh shard", global, h.Index())
			}
			ctrl, st, _ := f.arena.At(wi, uint32(local))
			ctrl.Init(ctrlCfg, cfg.Ladder)
			// Bind the policy for this cap now — Decide's only lazy
			// allocation — so the steady event path is allocation-free from
			// the first fire. Sessions sharing the cohort's table set share
			// one policy, so only the first session builds it.
			ctrl.Prewarm(cfg.BufferCap)
			f.pool.Seat(st, global)
			if cfg.Telemetry != nil {
				rec := cfg.Telemetry.StartSession(global)
				f.arena.SetRecorder(h, rec)
				w.recs[local] = rec
			}
			w.wheel.schedule(st, uint32(local), 1+uint32(global)%ticksPerSegment)
		}
		// ctx invariants are set once; Predict binds the reusable
		// constant predictor's method value here, not per decision.
		w.ctx = abr.Context{
			BufferCap:     cfg.BufferCap,
			Ladder:        cfg.Ladder,
			TotalSegments: 1 << 20, // an open-ended live stream
		}
		w.ctx.Predict = w.pred.predict
		w.fireFn = w.fire
		next += n
		f.workers[wi] = w
		go w.run()
	}
	return f, nil
}

// run is the persistent worker loop: park on the command channel, advance
// the wheel to each target tick, signal the barrier. A closed channel ends
// the worker.
func (w *fleetWorker) run() {
	for target := range w.cmd {
		w.wheel.advance(target, w.fireFn)
		w.f.barrier.Done()
	}
}

// fire handles one session's due event: pull the session's next throughput
// sample, run the real controller on it (the decision is instantaneous at
// event time), apply the decision through the player step kernel, and
// schedule the session's next event when the step's stream time is up.
//
//soda:noalloc
func (w *fleetWorker) fire(local uint32, tick uint32) {
	ctrl, st, watch := w.f.arena.At(w.shard, local)
	omega := w.f.pool.Next(st)

	w.pred.omega = omega
	w.ctx.Now = w.f.cfg.TickSeconds.Scale(float64(tick))
	w.ctx.Buffer = st.Buffer
	w.ctx.PrevRung = int(st.PrevRung)
	w.ctx.SegmentIndex = int(st.Segment)
	w.ctx.LastThroughput = omega

	decision := ctrl.Decide(&w.ctx)
	w.decisions++

	rung := abr.NoRung
	var bitrate units.Mbps
	if decision.Rung != abr.NoRung {
		rung = w.f.cfg.Ladder.ClampIndex(decision.Rung)
		bitrate = w.f.cfg.Ladder.Mbps(rung)
		w.segments++
	} else {
		w.waits++
	}
	dt, stall := w.f.player.Step(st, rung, bitrate, decision.WaitSeconds, omega)
	w.stall += stall

	if w.recs != nil {
		if rec := w.recs[local]; rec != nil {
			ev := rec.Start()
			ev.AtSeconds = w.ctx.Now
			ev.Segment = st.Segment
			ev.Rung = int16(rung)
			ev.PrevRung = int16(w.ctx.PrevRung)
			ev.Buffer = w.ctx.Buffer
			ev.Throughput = omega
			if rung == abr.NoRung {
				ev.WaitSeconds = dt
			} else {
				ev.Bitrate = bitrate
			}
			rec.Commit()
		}
	}
	if w.f.cfg.Watchdog != nil {
		w.f.cfg.Watchdog.Observe(watch, int32(w.base)+int32(local),
			w.ctx.Now, w.ctx.Buffer, int16(rung), int16(w.ctx.PrevRung))
	}

	due := tick + uint32(float64(dt)/float64(w.f.cfg.TickSeconds)+0.999999)
	w.wheel.schedule(st, local, due)
}

// Advance runs the whole cohort forward by window of simulated time, all
// workers in parallel, and returns when every worker has reached the target
// tick. The steady path allocates nothing: workers are persistent, commands
// are unboxed channel sends, and all per-decision state lives in the arena.
func (f *Fleet) Advance(window units.Seconds) {
	if f.closed || window <= 0 {
		return
	}
	ticks := uint32(float64(window) / float64(f.cfg.TickSeconds))
	if ticks < 1 {
		ticks = 1
	}
	f.ticks += ticks
	f.barrier.Add(len(f.workers))
	for _, w := range f.workers {
		w.cmd <- f.ticks
	}
	f.barrier.Wait()
}

// Report aggregates the cohort's counters. Call between Advances (the
// workers are parked, so the per-worker counters are quiescent).
func (f *Fleet) Report() FleetReport {
	rep := FleetReport{
		Sessions:   f.cfg.Sessions,
		Workers:    len(f.workers),
		SimSeconds: f.cfg.TickSeconds.Scale(float64(f.ticks)),
		Arena:      f.arena.Stats(),
	}
	for _, w := range f.workers {
		rep.Decisions += w.decisions
		rep.Waits += w.waits
		rep.Segments += w.segments
		rep.StallSeconds += w.stall
	}
	if f.cfg.Watchdog != nil {
		rep.Incidents = f.cfg.Watchdog.Total()
		rep.IncidentsPerThousand = flightrec.PerThousandSessions(rep.Incidents, rep.Sessions)
	}
	return rep
}

// Sessions exposes one session's controller and state for inspection (tests
// and the soda-sim CLI); ok=false when the index is out of range. The
// returned pointers follow the arena ownership contract: do not touch them
// while an Advance is in flight.
func (f *Fleet) Session(i int) (*core.Controller, *arena.State, bool) {
	if i < 0 || i >= f.cfg.Sessions {
		return nil, nil, false
	}
	for _, w := range f.workers {
		if i < w.base+w.n {
			ctrl, st, _ := f.arena.At(w.shard, uint32(i-w.base))
			return ctrl, st, true
		}
	}
	return nil, nil, false
}

// Close stops the worker pool and flushes telemetry recorders. The fleet is
// unusable afterwards; Close is idempotent.
func (f *Fleet) Close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, w := range f.workers {
		close(w.cmd)
		if w.recs != nil {
			for local, rec := range w.recs {
				if rec == nil {
					continue
				}
				ctrl, st, _ := f.arena.At(w.shard, uint32(local))
				s := ctrl.SolveStats()
				rec.Finish(&s, int(st.Segment), st.Stall)
			}
		}
	}
}
