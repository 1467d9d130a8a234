package sim

import (
	"fmt"
	"testing"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// fixedPredictor forecasts one constant throughput, the sim.Run counterpart
// of the fleet's oracle prediction on a constant trace.
type fixedPredictor struct{ omega units.Mbps }

func (p fixedPredictor) Observe(predictor.Sample)              {}
func (p fixedPredictor) Predict(_, _ units.Seconds) units.Mbps { return p.omega }
func (p fixedPredictor) Reset()                                {}

// TestFleetSessionMatchesRun is the differential test between the two
// players: one fleet session whose trace pool is overwritten with a constant
// throughput must reproduce sim.Run on the same constant trace — same rung
// sequence, same total stall — when sim.Run runs the fleet's controller
// configuration with zero latency, a one-segment startup and a constant
// predictor. The comparison stops before the session-tail horizon, where
// sim.Run's finite session shortens the controller's plan and the fleet's
// open-ended stream does not. The low throughputs make downloads outlast
// the buffer, so the stall arithmetic (drain before deposit, no stall while
// starting up) is on the line; the high ones fill the buffer to the cap.
func TestFleetSessionMatchesRun(t *testing.T) {
	ladder := video.Mobile()
	for _, omega := range []units.Mbps{0.6, 1, 3, 6, 20} {
		t.Run(fmt.Sprint(omega), func(t *testing.T) { fleetSessionMatchesRun(t, ladder, omega) })
	}
}

func fleetSessionMatchesRun(t *testing.T, ladder video.Ladder, omega units.Mbps) {
	const sessionSegments = 200
	col := telemetry.NewCollector(nil, 1<<12)
	f, err := NewFleet(FleetConfig{Sessions: 1, Workers: 1, Ladder: ladder, Seed: 5, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	f.pool[0] = []units.Mbps{omega}
	f.Advance(units.Seconds(300))
	_, st, _ := f.Session(0)
	fleetStall, segments := st.Stall, int(st.Segment)
	f.Close()
	var fleetRungs []int
	for _, ev := range col.Ring.Snapshot() {
		if ev.Rung != abr.NoRung {
			fleetRungs = append(fleetRungs, int(ev.Rung))
		}
	}

	res, err := Run(trace.Constant(omega, units.Seconds(1e5)), Config{
		Ladder:           ladder,
		BufferCap:        units.Seconds(20),
		StartupSegments:  1,
		SessionSeconds:   ladder.SegmentSeconds.Scale(sessionSegments),
		Controller:       core.New(fleetControllerConfig(), ladder),
		Predictor:        fixedPredictor{omega},
		RecordTrajectory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := int(core.DefaultConfig().MaxHorizonSeconds / ladder.SegmentSeconds)
	if segments < 10 || segments > sessionSegments-horizon {
		t.Fatalf("fleet downloaded %d segments; the comparison needs 10..%d", segments, sessionSegments-horizon)
	}
	if len(fleetRungs) != segments {
		t.Fatalf("%d download events for %d segments", len(fleetRungs), segments)
	}
	var runStall units.Seconds
	for i, p := range res.Trajectory[:segments] {
		if p.Rung != fleetRungs[i] {
			t.Fatalf("segment %d rung: fleet %d, sim.Run %d", i, fleetRungs[i], p.Rung)
		}
		runStall += p.RebufferSec
	}
	if fleetStall != runStall {
		t.Fatalf("stall over %d segments: fleet %v s, sim.Run %v s", segments, fleetStall, runStall)
	}
	t.Logf("%d segments, stall %.3f s", segments, float64(runStall))
}

func TestPlayerWaitClamp(t *testing.T) {
	p := Player{Segment: units.Seconds(2), BufferCap: units.Seconds(20), Startup: 1}
	// {advised, buffer, want}
	for _, c := range [][3]units.Seconds{
		{0, 10, 1},      // non-positive advice: L/2
		{-3, 10, 1},     // non-positive advice: L/2
		{0.7, 10, 0.7},  // in (0, L]: as advised
		{2, 10, 2},      // L itself is in range
		{5, 10, 1},      // above L: L/2
		{1.5, 0.4, 0.4}, // never outlasts the buffer
		{1.5, 0, 0},
	} {
		if got := p.Wait(c[0], c[1]); got != c[2] {
			t.Errorf("Wait(%v, buffer %v) = %v, want %v", c[0], c[1], got, c[2])
		}
	}
}

func TestPlayerDownloadDrainsBeforeDeposit(t *testing.T) {
	p := Player{Segment: units.Seconds(2), BufferCap: units.Seconds(20), Startup: 1}

	// Startup: the first download is startup delay, not stall.
	var st arena.State
	if got := p.Download(&st, units.Seconds(3)); got != (Spent{Startup: units.Seconds(3)}) {
		t.Fatalf("startup download spent %+v", got)
	}
	if st.Buffer != 2 || st.Stall != 0 || st.Segment != 1 {
		t.Fatalf("after startup: %+v", st)
	}

	// A download that outlasts the buffer stalls for all of dl − buffer,
	// and the new segment lands on an empty buffer.
	st.Buffer = 1
	if got := p.Download(&st, units.Seconds(3)); got != (Spent{Played: units.Seconds(1), Stall: units.Seconds(2)}) {
		t.Fatalf("outlasting download spent %+v", got)
	}
	if st.Buffer != 2 || st.Stall != 2 || st.Segment != 2 {
		t.Fatalf("after outlasting download: %+v", st)
	}

	// A download the buffer covers plays out of it and stalls nothing.
	if got := p.Download(&st, units.Seconds(0.5)); got != (Spent{Played: units.Seconds(0.5)}) {
		t.Fatalf("covered download spent %+v", got)
	}
	if st.Buffer != 3.5 || st.Stall != 2 {
		t.Fatalf("after covered download: %+v", st)
	}

	// Float-noise stalls charge nothing; non-positive spans are no-ops.
	st.Buffer = 1
	if got := p.Drain(&st, units.Seconds(1+1e-13)); got.Stall != 0 || st.Stall != 2 || st.Buffer != 0 {
		t.Fatalf("sub-picosecond stall charged: %+v, %+v", got, st)
	}
	if got := p.Drain(&st, units.Seconds(-1)); got != (Spent{}) || st.Buffer != 0 {
		t.Fatalf("negative drain: %+v, %+v", got, st)
	}
}

func TestPlayerStartupSegments(t *testing.T) {
	p := Player{Segment: units.Seconds(2), BufferCap: units.Seconds(20), Startup: 2}
	var st arena.State
	p.Download(&st, units.Seconds(1))
	if p.Playing(&st) {
		t.Fatal("playing after one of two startup segments")
	}
	if got := p.Drain(&st, units.Seconds(5)); got != (Spent{Startup: units.Seconds(5)}) || st.Buffer != 2 {
		t.Fatalf("idle during startup spent %+v, buffer %v", got, st.Buffer)
	}
	p.Download(&st, units.Seconds(1))
	if !p.Playing(&st) || st.Buffer != 4 {
		t.Fatalf("after two startup segments: playing=%v, %+v", p.Playing(&st), st)
	}
}

func TestPlayerIdleAndStep(t *testing.T) {
	p := Player{Segment: units.Seconds(2), BufferCap: units.Seconds(10), Startup: 1}
	if got := p.Idle(units.Seconds(8)); got != 0 {
		t.Fatalf("Idle(8) = %v: a segment still fits", got)
	}
	if got := p.Idle(units.Seconds(9.5)); got != 1.5 {
		t.Fatalf("Idle(9.5) = %v, want 1.5", got)
	}
	// A dead link is floored at 0.1 Mb/s: 4 Mb/s × 2 s takes 80 s, 78 of
	// them stalled on a 2 s buffer.
	dead := arena.State{Buffer: units.Seconds(2), Segment: 1}
	if dt, stall := p.Step(&dead, 0, units.Mbps(4), units.Seconds(0), units.Mbps(0)); dt != 80 || stall != 78 {
		t.Fatalf("dead-link step: dt=%v stall=%v", dt, stall)
	}

	st := arena.State{Buffer: units.Seconds(9), Segment: 3, PrevRung: 0}
	// 4 Mb/s at 8 Mb/s takes 1 s: buffer 9 → 8 → 10, then idle 2 s to 8.
	dt, stall := p.Step(&st, 1, units.Mbps(4), units.Seconds(0), units.Mbps(8))
	if dt != 3 || stall != 0 || st.Buffer != 8 || st.PrevRung != 1 || st.Segment != 4 {
		t.Fatalf("download step: dt=%v stall=%v %+v", dt, stall, st)
	}
	// A wait drains the clamped advice and keeps the previous rung.
	dt, stall = p.Step(&st, abr.NoRung, units.Mbps(0), units.Seconds(30), units.Mbps(8))
	if dt != 1 || stall != 0 || st.Buffer != 7 || st.PrevRung != 1 || st.Segment != 4 {
		t.Fatalf("wait step: dt=%v stall=%v %+v", dt, stall, st)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.Step(&st, 1, units.Mbps(4), units.Seconds(0), units.Mbps(8))
		p.Step(&st, abr.NoRung, units.Mbps(0), units.Seconds(1), units.Mbps(8))
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %v times per run", allocs)
	}
}

func TestTracePool(t *testing.T) {
	pool, err := NewTracePool(tracegen.Profile{}, units.Seconds(0), 3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 5 {
		t.Fatalf("pool of %d traces for 5 sessions, want one each", len(pool))
	}
	want, err := tracegen.Puffer().Session(units.Seconds(120), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool[2]) != len(want.Samples()) || pool[2][0] != want.Samples()[0].Mbps {
		t.Fatal("default pool is not 120 s Puffer traces")
	}
	big, err := NewTracePool(tracegen.FourG(), units.Seconds(10), 3, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 256 {
		t.Fatalf("pool of %d traces, want the 256 bound", len(big))
	}

	var st arena.State
	st.Buffer = 7
	pool.Seat(&st, 12) // trace 12 mod 5, cursor staggered by 12/5
	if st != (arena.State{PrevRung: int32(abr.NoRung), Trace: 2, Cursor: 2}) {
		t.Fatalf("Seat(12) = %+v", st)
	}
	samples := pool[2]
	for i := 0; i < len(samples)+1; i++ {
		if got, want := pool.Next(&st), samples[(i+2)%len(samples)]; got != want {
			t.Fatalf("sample %d = %v, want %v (wrapping)", i, got, want)
		}
	}
}
