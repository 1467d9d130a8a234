// Package arena is the struct-of-arrays session store shared by the fleet
// simulator, the load generator and soda-server's /decide control plane.
//
// A million concurrent sessions held as individual heap structs pay twice at
// decision time: once in allocator/GC pressure for the churn, and once in
// cache misses for the pointer chase from table entry to session to
// controller. The arena flattens that layout into slab-backed parallel
// arrays — controller state, player dynamics and recorder slots each live in
// a contiguous array indexed by slot — so one session's hot state is a
// handful of adjacent cache lines and creating or destroying a session is a
// free-list operation, not an allocation.
//
// Sessions are addressed by Handle, a packed (shard, generation, index)
// triple. The generation counter catches stale handles: freeing a slot bumps
// its generation, so a handle captured before the free can never alias the
// slot's next tenant (the ABA problem) — accessors return ok=false instead.
// Live slots hold odd generations and free slots even ones, so a handle
// (which always carries an odd generation) can never match a free slot.
//
// Concurrency layout: each shard owns its slots. Alloc and Free take the
// shard mutex (they touch the free list and growth bookkeeping); the hot
// accessors take no locks — they perform one atomic slab-pointer load and
// one atomic generation load, so the steady decide path of a worker that
// owns its shard is entirely lock-free. Accessing the *returned* state
// concurrently is the caller's contract, exactly as with heap-allocated
// sessions: the fleet simulator partitions shards across workers, the
// control plane serialises per session under the sessiontable entry lock.
// An owner that fills a fresh shard densely and never frees its slots — the
// fleet, where the i-th Alloc of a worker's shard is slot i for the cohort's
// lifetime — may address them by (shard, index) through At, with no handle,
// no generation check and no per-session pointer table of its own.
//
// Growth never moves memory: a shard grows by appending fresh slabs to a
// fixed spine of atomic slab pointers, so interior pointers returned by the
// accessors stay valid for the slot's lifetime and concurrent readers never
// observe a resized backing array.
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Handle addresses one session slot: [shard:8][generation:24][index:32].
// The zero Handle is never valid (generation 0 is even, i.e. free).
type Handle uint64

// Handle field layout.
const (
	idxBits   = 32
	genBits   = 24
	genMask   = 1<<genBits - 1
	shardBits = 8
	maxShards = 1 << shardBits
)

// Shard returns the shard the handle addresses.
func (h Handle) Shard() int { return int(h >> (idxBits + genBits)) }

// Index returns the slot index within the shard.
func (h Handle) Index() uint32 { return uint32(h) }

// Generation returns the allocation generation baked into the handle.
func (h Handle) Generation() uint32 { return uint32(h>>idxBits) & genMask }

func makeHandle(shard int, gen, idx uint32) Handle {
	return Handle(uint64(shard)<<(idxBits+genBits) | uint64(gen&genMask)<<idxBits | uint64(idx))
}

// Slab geometry: slots live in fixed-size slabs hung off a per-shard spine.
// 1024 slots per slab keeps a slab's controller array under ~1 MB while
// amortising growth; 4096 spine entries bound a shard at ~4.2M sessions.
const (
	slabBits       = 10
	slabSize       = 1 << slabBits
	slabMask       = slabSize - 1
	maxSlabs       = 1 << 12
	shardCapacity  = maxSlabs * slabSize
	noIndex        = ^uint32(0) // intrusive-list terminator
	maxGenerations = 1 << (genBits - 1)
)

// State is one session's player dynamics — the per-decision mutable block,
// kept to 40 bytes so a decision touches at most two cache lines of it. The
// field meanings are harness conventions, not arena policy: the fleet
// simulator uses all of them, the load generator all but the time-wheel
// pair, and the control plane the rung/segment pair. The player step kernel
// (sim.Player) owns Buffer, Stall, PrevRung and Segment.
type State struct {
	// Buffer and Stall are the simulated playback buffer and the cumulative
	// rebuffer time charged to this session.
	Buffer units.Seconds
	Stall  units.Seconds
	// PrevRung and Segment are the controller-visible session history.
	PrevRung int32
	Segment  int32
	// Trace and Cursor locate the session in the shared trace pool.
	Trace  int32
	Cursor int32
	// DueTick and Next are owned by the fleet time-wheel: the absolute due
	// tick of the scheduled event and the intrusive bucket-chain link.
	DueTick uint32
	Next    uint32
}

// slab is one fixed-size block of parallel session arrays. Generations are
// atomic so lock-free accessors can probe slots the owner is recycling; the
// remaining arrays are plain — a slot's data belongs to the handle holder.
type slab struct {
	gen   [slabSize]atomic.Uint32
	ctrl  [slabSize]core.Controller
	state [slabSize]State
	rec   [slabSize]*telemetry.SessionRecorder
	watch [slabSize]flightrec.SessionWatch
}

// shard is one independently owned partition. The spine is fixed-capacity so
// slab publication is a single atomic store and readers never see a resized
// array; mu guards only allocation-path bookkeeping, never the hot accessors.
type shard struct {
	spine [maxSlabs]atomic.Pointer[slab]

	mu sync.Mutex
	//soda:guard mu
	free []uint32
	//soda:guard mu
	next uint32
	//soda:guard mu
	slabs uint32

	cap  uint32
	live atomic.Int64
	_    [64]byte
}

// Arena is a sharded struct-of-arrays session store. All methods are safe
// for concurrent use; see the package comment for the ownership contract on
// returned pointers.
type Arena struct {
	shards []shard
	rr     atomic.Uint32 // AllocAny round-robin cursor

	allocs atomic.Uint64
	frees  atomic.Uint64
	stale  atomic.Uint64
}

// New builds an arena with the given shard count (clamped to [1, 256]).
// perShardCap bounds each shard's slot count; non-positive means the
// geometric maximum (~4.2M slots per shard).
func New(shards, perShardCap int) *Arena {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	if perShardCap <= 0 || perShardCap > shardCapacity {
		perShardCap = shardCapacity
	}
	a := &Arena{shards: make([]shard, shards)}
	for i := range a.shards {
		a.shards[i].cap = uint32(perShardCap)
	}
	return a
}

// Shards returns the shard count (the valid range for Alloc's shard index).
func (a *Arena) Shards() int { return len(a.shards) }

// Alloc claims a slot in the given shard and returns its handle. It returns
// ok=false when the shard is at capacity. The slot's controller is whatever
// the previous tenant left (or zero) — callers run core.(*Controller).Init
// and reset the State fields they use; the arena deliberately does not
// reach into controller internals.
func (a *Arena) Alloc(shardIdx int) (Handle, bool) {
	if shardIdx < 0 || shardIdx >= len(a.shards) {
		return 0, false
	}
	sh := &a.shards[shardIdx]
	sh.mu.Lock()
	var idx uint32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		if sh.next >= sh.cap {
			sh.mu.Unlock()
			return 0, false
		}
		if sh.next>>slabBits >= sh.slabs {
			sh.spine[sh.slabs].Store(newSlab())
			sh.slabs++
		}
		idx = sh.next
		sh.next++
	}
	sl := sh.spine[idx>>slabBits].Load()
	gen := sl.gen[idx&slabMask].Add(1) // even (free) -> odd (live)
	sh.mu.Unlock()
	sh.live.Add(1)
	a.allocs.Add(1)
	return makeHandle(shardIdx, gen, idx), true
}

// newSlab is out of line so Alloc's steady path (free-list pop) does not
// carry the ~1 MB composite literal in its frame.
func newSlab() *slab { return new(slab) }

// AllocAny claims a slot from any shard, starting at a round-robin cursor so
// unpartitioned callers (the control plane) spread sessions evenly. It fails
// only when every shard is full.
func (a *Arena) AllocAny() (Handle, bool) {
	start := int(a.rr.Add(1)-1) % len(a.shards)
	for i := 0; i < len(a.shards); i++ {
		if h, ok := a.Alloc((start + i) % len(a.shards)); ok {
			return h, ok
		}
	}
	return 0, false
}

// Free releases the slot, bumping its generation so every outstanding handle
// to it goes stale. It returns false (and does nothing) when the handle is
// already stale — a double free is therefore idempotent, not corrupting.
// The slot's recorder reference is dropped so a recycled slot cannot leak
// the previous tenant's recorder.
func (a *Arena) Free(h Handle) bool {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	sh.mu.Lock()
	sl := a.slabFor(sh, idx)
	if sl == nil {
		sh.mu.Unlock()
		return false
	}
	slot := idx & slabMask
	gen := sl.gen[slot].Load()
	if gen != h.Generation() {
		sh.mu.Unlock()
		a.stale.Add(1)
		return false
	}
	sl.rec[slot] = nil
	sl.watch[slot] = flightrec.SessionWatch{}
	sl.gen[slot].Add(1) // odd (live) -> even (free)
	sh.free = append(sh.free, idx)
	sh.mu.Unlock()
	sh.live.Add(-1)
	a.frees.Add(1)
	return true
}

// slabFor resolves the slab holding idx, nil when idx is out of range.
//
//soda:noalloc
func (a *Arena) slabFor(sh *shard, idx uint32) *slab {
	slabIdx := idx >> slabBits
	if slabIdx >= maxSlabs {
		return nil
	}
	return sh.spine[slabIdx].Load()
}

// Session resolves a handle to its controller and state. This is the hot
// accessor on every decide path: one atomic spine load, one atomic
// generation compare, no locks. ok=false means the handle is stale (the
// slot was freed, and possibly recycled, after the handle was made).
//
//soda:noalloc
func (a *Arena) Session(h Handle) (*core.Controller, *State, bool) {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return nil, nil, false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	sl := a.slabFor(sh, idx)
	if sl == nil {
		return nil, nil, false
	}
	slot := idx & slabMask
	if sl.gen[slot].Load() != h.Generation() {
		return nil, nil, false
	}
	return &sl.ctrl[slot], &sl.state[slot], true
}

// State resolves a handle to its player-dynamics block alone (the load
// generator's accessor — it has no controller in the arena to reach).
//
//soda:noalloc
func (a *Arena) State(h Handle) (*State, bool) {
	_, st, ok := a.sessionInlined(h)
	return st, ok
}

// Ctrl resolves a handle to its controller alone.
//
//soda:noalloc
func (a *Arena) Ctrl(h Handle) (*core.Controller, bool) {
	c, _, ok := a.sessionInlined(h)
	return c, ok
}

// sessionInlined duplicates Session under the inlining budget so State and
// Ctrl stay single-call accessors (Session itself is too large to inline
// into them once it has inlined slabFor).
//
//soda:noalloc
func (a *Arena) sessionInlined(h Handle) (*core.Controller, *State, bool) {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return nil, nil, false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	slabIdx := idx >> slabBits
	if slabIdx >= maxSlabs {
		return nil, nil, false
	}
	sl := sh.spine[slabIdx].Load()
	if sl == nil {
		return nil, nil, false
	}
	slot := idx & slabMask
	if sl.gen[slot].Load() != h.Generation() {
		return nil, nil, false
	}
	return &sl.ctrl[slot], &sl.state[slot], true
}

// At resolves slot idx of the shard to its controller, state and watch
// without a handle: the dense owner's accessor of the shard-ownership
// contract (see the package comment). It checks no generation, so idx must
// name a slot the caller allocated and has not freed; the only loads are the
// slab pointer and what the caller then reads through the results.
//
//soda:noalloc
func (a *Arena) At(shard int, idx uint32) (*core.Controller, *State, *flightrec.SessionWatch) {
	sl := a.shards[shard].spine[idx>>slabBits].Load()
	slot := idx & slabMask
	return &sl.ctrl[slot], &sl.state[slot], &sl.watch[slot]
}

// Watch resolves a handle to the slot's QoE-watchdog state. Like the other
// parallel arrays, the watch belongs to the handle holder; Free zeroes it so
// a recycled slot starts with fresh detector state.
//
//soda:noalloc
func (a *Arena) Watch(h Handle) (*flightrec.SessionWatch, bool) {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return nil, false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	sl := a.slabFor(sh, idx)
	if sl == nil {
		return nil, false
	}
	slot := idx & slabMask
	if sl.gen[slot].Load() != h.Generation() {
		return nil, false
	}
	return &sl.watch[slot], true
}

// Recorder returns the slot's telemetry recorder (nil when none was set).
//
//soda:noalloc
func (a *Arena) Recorder(h Handle) (*telemetry.SessionRecorder, bool) {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return nil, false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	sl := a.slabFor(sh, idx)
	if sl == nil {
		return nil, false
	}
	slot := idx & slabMask
	if sl.gen[slot].Load() != h.Generation() {
		return nil, false
	}
	return sl.rec[slot], true
}

// SetRecorder binds a telemetry recorder to the slot for the handle's
// lifetime; Free drops it. It returns false on a stale handle.
func (a *Arena) SetRecorder(h Handle, rec *telemetry.SessionRecorder) bool {
	shardIdx := h.Shard()
	if shardIdx >= len(a.shards) {
		return false
	}
	sh := &a.shards[shardIdx]
	idx := h.Index()
	sl := a.slabFor(sh, idx)
	if sl == nil {
		return false
	}
	slot := idx & slabMask
	if sl.gen[slot].Load() != h.Generation() {
		return false
	}
	sl.rec[slot] = rec
	return true
}

// Len returns the live slot count across all shards.
func (a *Arena) Len() int {
	var n int64
	for i := range a.shards {
		n += a.shards[i].live.Load()
	}
	return int(n)
}

// Stats is a point-in-time snapshot of the arena's lifecycle counters.
type Stats struct {
	Shards int
	Live   int
	// Slabs is the total slab count across shards (committed memory).
	Slabs int
	// HighWater is the total number of distinct slots ever claimed.
	HighWater int
	Allocs    uint64
	Frees     uint64
	// StaleFrees counts Free calls that observed a stale handle.
	StaleFrees uint64
}

// String renders the snapshot for test failures and debug logs.
func (s Stats) String() string {
	return fmt.Sprintf("arena: shards=%d live=%d slabs=%d highwater=%d allocs=%d frees=%d stale=%d",
		s.Shards, s.Live, s.Slabs, s.HighWater, s.Allocs, s.Frees, s.StaleFrees)
}

// Stats snapshots the lifecycle counters.
func (a *Arena) Stats() Stats {
	st := Stats{
		Shards: len(a.shards),
		Live:   a.Len(),
		Allocs: a.allocs.Load(),
		Frees:  a.frees.Load(),
	}
	st.StaleFrees = a.stale.Load()
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		st.Slabs += int(sh.slabs)
		st.HighWater += int(sh.next)
		sh.mu.Unlock()
	}
	return st
}
