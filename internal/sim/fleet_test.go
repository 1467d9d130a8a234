package sim

import (
	"runtime"
	"testing"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(FleetConfig{Ladder: video.Mobile()}); err == nil {
		t.Fatal("NewFleet accepted zero sessions")
	}
	if _, err := NewFleet(FleetConfig{Sessions: 1}); err == nil {
		t.Fatal("NewFleet accepted an empty ladder")
	}
	if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(),
		BufferCap: units.Seconds(0.5)}); err == nil {
		t.Fatal("NewFleet accepted a sub-segment buffer cap")
	}
	bad := core.DefaultConfig()
	bad.Horizon = -3
	if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(),
		Controller: &bad}); err == nil {
		t.Fatal("NewFleet accepted an invalid controller config")
	}
}

func TestFleetAdvancesEverySession(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Sessions: 300,
		Workers:  3,
		Ladder:   video.Mobile(),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Advance(units.Seconds(60))
	rep := f.Report()
	if rep.Sessions != 300 || rep.Workers != 3 {
		t.Fatalf("report sessions/workers = %d/%d, want 300/3", rep.Sessions, rep.Workers)
	}
	if rep.SimSeconds != units.Seconds(60) {
		t.Fatalf("sim clock = %v, want 60 s", rep.SimSeconds)
	}
	if rep.Arena.Live != 300 {
		t.Fatalf("arena live = %d, want 300: %s", rep.Arena.Live, rep.Arena)
	}
	// Over a minute of simulated time every session must have downloaded
	// many segments (steady cadence is roughly one per segment duration).
	for i := 0; i < rep.Sessions; i++ {
		_, st, ok := f.Session(i)
		if !ok {
			t.Fatalf("Session(%d) failed", i)
		}
		if st.Segment < 5 {
			t.Fatalf("session %d downloaded only %d segments in 60 s", i, st.Segment)
		}
		if st.Buffer < 0 || st.Buffer > units.Seconds(20) {
			t.Fatalf("session %d buffer %v outside [0, cap]", i, st.Buffer)
		}
	}
	if rep.Decisions < uint64(rep.Sessions)*5 {
		t.Fatalf("only %d decisions across the cohort", rep.Decisions)
	}
	if rep.Segments == 0 {
		t.Fatal("no segments downloaded")
	}
	if _, _, ok := f.Session(-1); ok {
		t.Fatal("Session(-1) succeeded")
	}
	if _, _, ok := f.Session(300); ok {
		t.Fatal("Session(300) succeeded")
	}
}

// TestFleetDeterministic pins that two cohorts with the same seed advance
// through identical decision histories — the property that makes fleet
// experiments reproducible and the benchmark's ratio gate stable.
func TestFleetDeterministic(t *testing.T) {
	build := func() *Fleet {
		f, err := NewFleet(FleetConfig{
			Sessions: 200,
			Workers:  2,
			Ladder:   video.Mobile(),
			Profile:  tracegen.FourG(),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	// Advance in different window patterns: the wheel must make window
	// boundaries invisible.
	a.Advance(units.Seconds(30))
	for i := 0; i < 6; i++ {
		b.Advance(units.Seconds(5))
	}
	ra, rb := a.Report(), b.Report()
	if ra.Decisions != rb.Decisions || ra.Waits != rb.Waits ||
		ra.Segments != rb.Segments || ra.StallSeconds != rb.StallSeconds {
		t.Fatalf("cohorts diverged:\n30x1: %+v\n5x6:  %+v", ra, rb)
	}
	for i := 0; i < ra.Sessions; i++ {
		_, sa, _ := a.Session(i)
		_, sb, _ := b.Session(i)
		if sa.Segment != sb.Segment || sa.PrevRung != sb.PrevRung || sa.Buffer != sb.Buffer {
			t.Fatalf("session %d diverged: %+v vs %+v", i, *sa, *sb)
		}
	}
}

// TestFleetMatchesSingleSessionDecisions checks the fleet's wheel and arena
// plumbing against a serial loop: one session, one trace, the same
// controller and the same player step kernel, decision by decision, must
// land on the same player state.
func TestFleetMatchesSingleSessionDecisions(t *testing.T) {
	ladder := video.Mobile()
	f, err := NewFleet(FleetConfig{
		Sessions: 1,
		Workers:  1,
		Ladder:   ladder,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Advance(units.Seconds(45))
	_, got, _ := f.Session(0)
	rep := f.Report()
	if rep.Decisions == 0 || got.Segment == 0 {
		t.Fatalf("no progress: %+v", rep)
	}

	pool, err := NewTracePool(tracegen.Puffer(), units.Seconds(120), 11, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.New(fleetControllerConfig(), ladder)
	pred := &constPredictor{}
	ctx := &abr.Context{
		BufferCap:     units.Seconds(20),
		Ladder:        ladder,
		TotalSegments: 1 << 20,
		Predict:       pred.predict,
	}
	player := Player{Segment: ladder.SegmentSeconds, BufferCap: units.Seconds(20), Startup: 1}
	var want arena.State
	pool.Seat(&want, 0)
	var stall units.Seconds
	for n := uint64(0); n < rep.Decisions; n++ {
		omega := pool.Next(&want)
		pred.omega = omega
		ctx.Buffer = want.Buffer
		ctx.PrevRung = int(want.PrevRung)
		ctx.SegmentIndex = int(want.Segment)
		ctx.LastThroughput = omega
		d := ctrl.Decide(ctx)
		var bitrate units.Mbps
		if d.Rung != abr.NoRung {
			d.Rung = ladder.ClampIndex(d.Rung)
			bitrate = ladder.Mbps(d.Rung)
		}
		_, s := player.Step(&want, d.Rung, bitrate, d.WaitSeconds, omega)
		stall += s
	}
	want.DueTick, want.Next = got.DueTick, got.Next // the wheel's own fields
	if want != *got {
		t.Fatalf("serial replay %+v != fleet %+v", want, *got)
	}
	if rep.StallSeconds != stall {
		t.Fatalf("serial stall %v != fleet report %v", stall, rep.StallSeconds)
	}
}

func TestFleetTelemetry(t *testing.T) {
	col := telemetry.NewCollector(nil, 1<<10)
	f, err := NewFleet(FleetConfig{
		Sessions:  50,
		Workers:   2,
		Ladder:    video.Mobile(),
		Seed:      3,
		Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(units.Seconds(20))
	rep := f.Report()
	f.Close()
	f.Close() // idempotent
	if got := col.Decisions.Value(); got != float64(rep.Decisions) {
		t.Fatalf("collector decisions = %g, fleet counted %d", got, rep.Decisions)
	}
	if got := col.Sessions.Value(); got != 50 {
		t.Fatalf("collector sessions = %g, want 50", got)
	}
	if got := col.Segments.Value(); got != float64(rep.Segments) {
		t.Fatalf("collector segments = %g, fleet counted %d", got, rep.Segments)
	}
	// Advance after Close is a no-op, not a deadlock.
	f.Advance(units.Seconds(5))
}

// TestFleetHeapPerSession pins the cohort's memory: every session shares the
// cohort's one policy and lives in its arena slot — two controller cache
// lines, the player state and the watchdog state — with no per-session
// controller heap objects and no per-session pointer tables in the workers.
func TestFleetHeapPerSession(t *testing.T) {
	const sessions = 20000
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	f, err := NewFleet(FleetConfig{
		Sessions: sessions,
		Workers:  2,
		Ladder:   video.Mobile(),
		Profile:  tracegen.FourG(),
		Seed:     1,
		Watchdog: flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	perSession := float64(heap()-before) / sessions
	runtime.KeepAlive(f)
	if perSession > 300 {
		t.Fatalf("fleet holds %.1f B per session, want <= 300", perSession)
	}
	t.Logf("%.1f B per session", perSession)
}

// TestWheelLongHorizons drives the wheel directly: events beyond the inner
// span cascade from the outer wheel, and events beyond even the outer span
// lap it and still fire at their exact tick.
func TestWheelLongHorizons(t *testing.T) {
	a := arena.New(1, 0)
	const n = 5
	for i := 0; i < n; i++ {
		a.Alloc(0) // dense: the i-th Alloc is slot i
	}
	var w wheel
	w.init(a, 0)
	due := []uint32{3, wheelSlots + 7, 3 * wheelSlots, wheelSlots*wheelSlots + 13, 2*wheelSlots*wheelSlots + 1}
	for i, d := range due {
		w.schedule(w.state(uint32(i)), uint32(i), d)
	}
	fired := map[uint32]uint32{}
	w.advance(2*wheelSlots*wheelSlots+wheelSlots, func(local, tick uint32) {
		if _, dup := fired[local]; dup {
			t.Fatalf("session %d fired twice", local)
		}
		fired[local] = tick
	})
	for i, d := range due {
		if got := fired[uint32(i)]; got != d {
			t.Fatalf("session %d fired at tick %d, want %d", i, got, d)
		}
	}
	// Past-due scheduling clamps to the next tick instead of never firing.
	w.schedule(w.state(0), 0, 1)
	var clamped uint32
	w.advance(w.now+2, func(local, tick uint32) { clamped = tick })
	if clamped == 0 {
		t.Fatal("past-due event never fired")
	}
}

// synthTraces builds n deterministic traces from a tracegen profile.
func synthTraces(t *testing.T, profile tracegen.Profile, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, n)
	for i := range out {
		tr, err := profile.Session(units.Seconds(90), 99, i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// RunMany satellite: deterministic indexed results on a bounded pool.
func TestRunManyDeterministicAcrossRepeats(t *testing.T) {
	profile := tracegen.FiveG()
	runOnce := func() []Result {
		ts := synthTraces(t, profile, 24)
		factory := func() (abr.Controller, predictor.Predictor) {
			return core.New(core.DefaultConfig(), video.Mobile()), predictor.NewEMA(units.Seconds(4))
		}
		out, err := RunMany(ts, factory, Config{
			Ladder:         video.Mobile(),
			BufferCap:      units.Seconds(20),
			SessionSeconds: units.Seconds(60),
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce()
	second := runOnce()
	if len(first) != 24 || len(second) != 24 {
		t.Fatalf("result counts %d/%d, want 24", len(first), len(second))
	}
	for i := range first {
		if first[i].Metrics != second[i].Metrics || first[i].Waits != second[i].Waits ||
			first[i].Duration != second[i].Duration {
			t.Fatalf("session %d differs across repeat runs:\n1st: %+v\n2nd: %+v",
				i, first[i].Metrics, second[i].Metrics)
		}
		if len(first[i].Rungs) == 0 {
			t.Fatalf("session %d recorded no rungs", i)
		}
	}
}
