// The player step kernel: Run's buffer dynamics, written once. Run, the
// fleet's fire and loadgen's virtual players all call it on an arena.State
// (Run keeps one on its stack), so they agree on the wait clamp, on when a
// download stalls and on how the cap binds. DESIGN.md §6b lists what the
// harnesses still model differently.
package sim

import (
	"fmt"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/tracegen"
	"repro/internal/units"
)

// Player is the buffer model one session's steps run against: segment
// duration L, the buffer cap, and how many segments must be in before
// playback starts (read off State.Segment, so the state needs no flag).
type Player struct {
	Segment   units.Seconds
	BufferCap units.Seconds
	Startup   int32
}

// Spent splits the stream time of one kernel step: Played came out of the
// buffer, Stall was rebuffering, and Startup passed before the first frame.
type Spent struct{ Played, Stall, Startup units.Seconds }

// Playing reports whether playback has started.
func (p Player) Playing(st *arena.State) bool { return st.Segment >= p.Startup }

// Wait clamps a controller's advised wait: advice outside (0, L] becomes
// L/2, and no wait outlasts the buffer.
//
//soda:noalloc
func (p Player) Wait(advised, buffer units.Seconds) units.Seconds {
	if advised <= 0 || advised > p.Segment {
		advised = p.Segment / 2
	}
	if advised > buffer {
		advised = buffer
	}
	return advised
}

// Idle is the cap: how long the player idles before its next request so
// that one more segment fits under the cap.
//
//soda:noalloc
func (p Player) Idle(buffer units.Seconds) units.Seconds {
	if over := buffer + p.Segment - p.BufferCap; over > 1e-9 {
		return over
	}
	return 0
}

// Drain plays dt seconds of stream time. Before playback starts the buffer
// holds and all of dt is startup delay; after, the buffer drains and any
// time beyond it is stall, charged to st.Stall (below a picosecond it is
// float noise and charges nothing).
//
//soda:noalloc
func (p Player) Drain(st *arena.State, dt units.Seconds) Spent {
	if dt <= 0 {
		return Spent{}
	}
	if !p.Playing(st) {
		return Spent{Startup: dt}
	}
	played := min(dt, st.Buffer)
	st.Buffer -= played
	stall := dt - played
	if stall <= 1e-12 {
		return Spent{Played: played}
	}
	st.Stall += stall
	return Spent{Played: played, Stall: stall}
}

// Download charges one segment download of dl seconds: the buffer drains
// first, then the segment's L seconds are deposited and counted.
//
//soda:noalloc
func (p Player) Download(st *arena.State, dl units.Seconds) Spent {
	spent := p.Drain(st, dl)
	st.Buffer += p.Segment
	st.Segment++
	return spent
}

// Step applies one decision under the per-sample network model of the fleet
// and loadgen. A wait (rung < 0) idles for the clamped advice, which cannot
// stall. A download of rung at bitrate takes bitrate·L/ω against the
// throughput sample omega (floored at 0.1 Mb/s, so a stalled link still
// finishes), becomes the previous rung, and is followed by the cap's idle.
// Step returns the stream time it took and the stall it charged.
//
//soda:noalloc
func (p Player) Step(st *arena.State, rung int, bitrate units.Mbps, wait units.Seconds, omega units.Mbps) (dt, stall units.Seconds) {
	if rung < 0 {
		dt = p.Wait(wait, st.Buffer)
		p.Drain(st, dt)
		return dt, 0
	}
	dt = units.Seconds(float64(bitrate) * float64(p.Segment) / max(float64(omega), 0.1))
	stall = p.Download(st, dt).Stall
	st.PrevRung = int32(rung)
	idle := p.Idle(st.Buffer)
	p.Drain(st, idle)
	return dt + idle, stall
}

// TracePool holds the synthesized throughput traces a cohort's sessions
// share round-robin, one sample per decision.
type TracePool [][]units.Mbps

// NewTracePool synthesizes size traces of the given length (default 120 s)
// from profile (default Puffer) for a cohort of sessions: one per session
// when size is non-positive or above the cohort, and at most 256.
func NewTracePool(profile tracegen.Profile, length units.Seconds, seed uint64, size, sessions int) (TracePool, error) {
	if profile.Name == "" {
		profile = tracegen.Puffer()
	}
	if length <= 0 {
		length = units.Seconds(120)
	}
	if size <= 0 || size > sessions {
		size = sessions
	}
	pool := make(TracePool, min(size, 256))
	for i := range pool {
		tr, err := profile.Session(length, seed, i)
		if err != nil {
			return nil, fmt.Errorf("synthesizing trace %d: %w", i, err)
		}
		pool[i] = make([]units.Mbps, tr.Len())
		for j, s := range tr.Samples() {
			pool[i][j] = s.Mbps
		}
	}
	return pool, nil
}

// Seat resets session i's state onto trace i mod n, its cursor staggered by
// i/n samples so sessions sharing a trace do not walk it in lockstep.
func (p TracePool) Seat(st *arena.State, i int) {
	trace := i % len(p)
	*st = arena.State{PrevRung: int32(abr.NoRung), Trace: int32(trace), Cursor: int32(i / len(p) % len(p[trace]))}
}

// Next returns the session's next throughput sample. Samples wrap; the
// cursor stays below the trace length, so no division is needed.
//
//soda:noalloc
func (p TracePool) Next(st *arena.State) units.Mbps {
	samples := p[st.Trace]
	omega := samples[st.Cursor]
	if st.Cursor++; int(st.Cursor) == len(samples) {
		st.Cursor = 0
	}
	return omega
}
