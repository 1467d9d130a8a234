// Package flightrec is the serving pipeline's flight recorder: fixed-slot,
// ring-buffered stage-latency spans, an online QoE-consistency watchdog over
// the decision stream, and the timeline/trace exports built on both plus the
// telemetry decision ring.
//
// The package follows the same two contracts as internal/telemetry:
//
//   - Purity: nothing here is visible to a controller. Harnesses (httpseg,
//     sim, sim.Fleet, loadgen) record spans and feed the watchdog from the
//     call site after Decide returns, so `abrtest.FlightRecConformance` can
//     pin decisions bit-identical with and without the recorder attached.
//   - Zero allocation on the hot path: span recording is a cursor fetch-add
//     plus four atomic word stores into pre-allocated per-stage slots, and
//     the watchdog's detectors are integer state machines embedded in
//     caller-owned memory (`SessionWatch` lives inside the arena slab).
//     `BenchmarkFlightRecOverhead` gates the end-to-end cost at ≤5%
//     ns/decision, and the recording functions are `//soda:noalloc`.
//
// Span slots use a per-slot seqlock so writers are lock-free and readers
// race-detector-clean: a writer claims a slot by CASing its version from
// even to odd, stores the span's words atomically, and releases with
// version+2; a writer that finds the version odd (a lapping writer still
// mid-store) drops the span and counts the drop rather than spinning.
// Readers validate the version before and after copying the words.
//
// Like telemetry, the JSONL/trace exports speak raw float64 — the package
// is a sanctioned laundering site:
//
//soda:wire-boundary
package flightrec

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stage names one segment of the serving pipeline a span can cover. The
// order is admission order; Respond brackets the whole decide call.
type Stage uint8

const (
	// StageRateLimit is the per-client token-bucket admission check.
	StageRateLimit Stage = iota
	// StageInflight is the in-flight semaphore acquire.
	StageInflight
	// StageSession is the session-table acquire (hash, shard lock, refcount).
	StageSession
	// StageArena is the arena handle resolution (spine + generation check).
	StageArena
	// StageDecide is the controller Decide call — table lookup, shared-cache
	// hit, or solver fallback, whichever the decision took.
	StageDecide
	// StageRespond is the whole serving call, admission through reply.
	StageRespond

	// NumStages sizes per-stage arrays.
	NumStages = int(StageRespond) + 1
)

// stageNames are the label values of soda_server_stage_latency_seconds and
// the "stage" field of the JSONL/trace exports.
var stageNames = [NumStages]string{
	"ratelimit", "inflight", "session", "arena", "decide", "respond",
}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded pipeline stage: where, when (nanoseconds on the
// recorder's monotonic clock), how long, for which session, and whether the
// stage admitted the request (OK false = rejected/shed/stale).
type Span struct {
	Start   int64 `json:"start_ns"`
	Dur     int64 `json:"dur_ns"`
	Session int32 `json:"session"`
	Stage   Stage `json:"-"`
	OK      bool  `json:"ok"`
	// StageName is Stage rendered for the wire; filled on snapshot.
	StageName string `json:"stage"`
}

// spanWords is the number of atomic words one slot's payload packs into:
// word 0 start ns, word 1 duration ns, word 2 session|stage|ok.
const spanWords = 3

// stageRing is one stage's fixed ring of seqlock slots. All state is atomic
// words — no mutex, no pointer, safe for any number of concurrent writers
// and readers.
type stageRing struct {
	cursor  atomic.Uint64 // total spans ever claimed; slot = seq & mask
	dropped atomic.Uint64 // spans dropped on lap collision
	mask    uint64
	ver     []atomic.Uint64 // per-slot seqlock version; odd = write in progress
	data    []atomic.Uint64 // spanWords words per slot
}

func newStageRing(capacity int) *stageRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &stageRing{
		mask: uint64(n - 1),
		ver:  make([]atomic.Uint64, n),
		data: make([]atomic.Uint64, n*spanWords),
	}
}

// record claims the next slot and stores one span. A slot whose previous
// write is still in progress (a writer lapped the whole ring mid-store)
// is dropped, not spun on — the recorder never blocks the serving path.
//
//soda:noalloc
func (r *stageRing) record(session int32, startNS, durNS int64, ok bool) {
	seq := r.cursor.Add(1) - 1
	i := seq & r.mask
	v := r.ver[i].Load()
	if v&1 != 0 || !r.ver[i].CompareAndSwap(v, v+1) {
		r.dropped.Add(1)
		return
	}
	base := i * spanWords
	r.data[base].Store(uint64(startNS))
	r.data[base+1].Store(uint64(durNS))
	var okBit uint64
	if ok {
		okBit = 1
	}
	r.data[base+2].Store(uint64(uint32(session))<<32 | okBit<<8)
	r.ver[i].Store(v + 2)
}

// snapshot appends the ring's consistent spans to dst, oldest slot first
// relative to the cursor. Slots mid-write or rewritten during the copy are
// skipped — the reader never blocks a writer.
func (r *stageRing) snapshot(stage Stage, dst []Span) []Span {
	end := r.cursor.Load()
	n := uint64(len(r.ver))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	for seq := start; seq < end; seq++ {
		i := seq & r.mask
		v := r.ver[i].Load()
		// Odd: a write in progress. Zero: the slot is claimed (the cursor
		// already counts it) but its writer has not started, so it holds no
		// span yet.
		if v&1 != 0 || v == 0 {
			continue
		}
		base := i * spanWords
		w0 := r.data[base].Load()
		w1 := r.data[base+1].Load()
		w2 := r.data[base+2].Load()
		if r.ver[i].Load() != v {
			continue
		}
		dst = append(dst, Span{
			Start:     int64(w0),
			Dur:       int64(w1),
			Session:   int32(uint32(w2 >> 32)),
			Stage:     stage,
			OK:        (w2>>8)&1 == 1,
			StageName: stage.String(),
		})
	}
	return dst
}

// DefaultSpansPerStage holds a few seconds of per-stage serving traffic —
// the same "context around the incident" sizing as the decision ring.
const DefaultSpansPerStage = 4096

// latency buckets for the per-stage histograms: 100ns..100ms, the range
// between an arena load and a contended solver fallback.
var stageLatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.1,
}

// Recorder is the stage-latency flight recorder: one seqlock span ring and
// one latency histogram per pipeline stage, sharing a monotonic epoch. A nil
// Recorder is a valid no-op, so harnesses wire it unconditionally.
type Recorder struct {
	rings [NumStages]*stageRing
	hist  [NumStages]*telemetry.Histogram
	epoch time.Time
}

// NewRecorder builds a recorder with perStage slots per pipeline stage
// (non-positive = DefaultSpansPerStage), registering the per-stage
// soda_server_stage_latency_seconds histograms and the dropped-span counter
// on reg (nil = a private registry; the rings still work).
func NewRecorder(reg *telemetry.Registry, perStage int) *Recorder {
	if perStage <= 0 {
		perStage = DefaultSpansPerStage
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Recorder{epoch: time.Now()}
	for s := 0; s < NumStages; s++ {
		r.rings[s] = newStageRing(perStage)
		r.hist[s] = reg.Histogram(
			"soda_server_stage_latency_seconds",
			"serving pipeline stage latency, by stage",
			telemetry.USeconds, stageLatencyBuckets,
			telemetry.Label{Key: "stage", Value: Stage(s).String()},
		)
	}
	return r
}

// Now returns nanoseconds since the recorder's epoch — the clock span
// start/duration stamps are denominated in. Nil-safe (returns 0).
//
//soda:noalloc
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record stores one stage span and feeds the stage's latency histogram.
// Nil-safe no-op, so call sites need no branches.
//
//soda:noalloc
func (r *Recorder) Record(stage Stage, session int32, startNS, durNS int64, ok bool) {
	if r == nil || int(stage) >= NumStages {
		return
	}
	r.rings[stage].record(session, startNS, durNS, ok)
	r.hist[stage].Observe(float64(durNS) * 1e-9)
}

// Dropped returns the total spans dropped across stages (lap collisions).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for s := 0; s < NumStages; s++ {
		n += r.rings[s].dropped.Load()
	}
	return n
}

// Snapshot copies every stage ring's consistent spans, ordered by stage
// then oldest first. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for s := 0; s < NumStages; s++ {
		out = r.rings[s].snapshot(Stage(s), out)
	}
	return out
}

// SessionSpans returns the recorder's spans for one session, every stage,
// oldest first per stage.
func (r *Recorder) SessionSpans(session int32) []Span {
	all := r.Snapshot()
	kept := all[:0]
	for _, sp := range all {
		if sp.Session == session {
			kept = append(kept, sp)
		}
	}
	return kept
}
