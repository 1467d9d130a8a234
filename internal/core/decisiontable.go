package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/units"
	"repro/internal/video"
)

// DecisionTables is a fleet-wide set of shared policies and their compiled
// decision tables (Config.DecisionTable). The paper's Fig. 5 decision diagram
// is the observation it exploits: for a fixed cost model the committed
// decision is a pure function of the quantized (buffer level, predicted
// throughput, previous rung) planning state, so the whole map can be
// compiled once — lazily on first bind, or eagerly via CompileTable — and the
// hot path becomes an O(1) array load with no locks, no hashing and no
// allocation.
//
// Sharing. Controllers on one set with equal identities — config, ladder and
// buffer cap, compared in full — get the same immutable Policy. Policies
// whose configs differ only in knobs a table does not depend on (see
// tableKey) share one compiled table. Cells are filled by the exact solver
// path Decide runs (solveFirstRung at the quantized state), so a table hit
// returns precisely what the solver would — the TableConformance contract in
// internal/abrtest pins this bit-for-bit, and FuzzDecisionTableKey hammers
// the keying at domain edges and under concurrent binding.
//
// Domain and fallback. A table covers buffer in [0, cap] and predicted
// throughput in [0, W] at its quantum, for the steady-state horizon only. W
// is the overflow edge r_top·(cap+L)/L (see overflowEdge): at or above it
// even the top rung fills an empty buffer past the cap within one segment
// interval, so the edge follows from the policy and is not a knob. The
// [0, 2x top rung] part of the throughput axis, where fleet predictions
// concentrate, is compiled when the table is bound; cells past it start
// empty and are filled on first touch by the same solver call (a lookup
// that finds its cell empty counts as a fallback). Cells are bytes packed
// into atomic words, and a cell is a pure function of its key, so racing
// fills publish the same byte. Any state outside the domain — session-tail
// horizons, predictions past W, non-finite predictions — falls through to
// the ordinary memo/shared-cache/solver path untouched; states are never
// clamped into the table. Oversized geometries compile to a fallback-only
// stub.
//
// Budget. A set holds at most its budget of policies. A binding past it gets
// a private policy with a stub table and leaves the set as it is, so identity
// churn (per-request buffer caps on a server) costs one policy build per
// bind — never set memory, compile work or a longer scan.
//
// A DecisionTables set is safe for concurrent use and is injected state: it
// holds no package-level variables and launches no goroutines, which keeps
// controllers wired to it purecontroller-clean (see DESIGN.md).
type DecisionTables struct {
	mu sync.Mutex
	//soda:guard mu
	policies []*Policy
	//soda:guard mu
	tables    []*decisionTable // the compiled tables, each once
	maxTables int
	//soda:guard mu
	stats TableStats // Stubs and CompileSolves; Stats derives the rest
}

// DefaultMaxTables bounds how many policies (and so compiled tables) one set
// holds. A deployment serves a handful of (ladder, config, cap) tuples; the
// bound exists so identity churn (e.g. per-request buffer caps on a server)
// degrades to solver fallbacks, not unbounded memory.
const DefaultMaxTables = 64

// maxTableCells bounds one table's cell count (1-byte cells, so the largest
// table is ~8 MB). Geometries above it become fallback-only stubs.
const maxTableCells = 1 << 23

// tableThroughputSpan is the multiple of the ladder's top rung up to which
// the throughput axis is compiled when a table is bound. Fleet predictions
// concentrate below it, so the first decisions hit a compiled cell; the rest
// of the domain, up to the overflow edge, fills on first touch. Compiling
// the whole domain eagerly would cost the bind several times as many solves
// for cells most tables never read.
const tableThroughputSpan = 2.0

// overflowEdge is the top of a table's throughput domain, r_top·(cap+L)/L:
// one segment interval L of downloading the top rung at this prediction adds
// cap+L seconds of video, so even an empty buffer overflows the cap. Past it
// every rung refills the buffer to the cap on every step, whatever the
// buffer level, and such predictions are rare enough to leave to the solver.
func overflowEdge(ladder video.Ladder, bufferCap units.Seconds) units.Mbps {
	l := float64(ladder.SegmentSeconds)
	return ladder.Max().Scale((float64(bufferCap) + l) / l)
}

// NewDecisionTables builds an empty set with the default budget.
func NewDecisionTables() *DecisionTables {
	return NewDecisionTablesSized(DefaultMaxTables)
}

// NewDecisionTablesSized is NewDecisionTables with an explicit budget on the
// policies the set holds; bindings past the budget get private fallback-only
// policies. It panics on a non-positive budget: table budgets are program
// constants in every harness, exactly like cache sizes.
func NewDecisionTablesSized(maxTables int) *DecisionTables {
	if maxTables <= 0 {
		panic(fmt.Sprintf("core: non-positive decision table budget %d", maxTables))
	}
	return &DecisionTables{maxTables: maxTables}
}

// decisionTable is one compiled table: a fixed geometry over (prev+1, buffer
// bin, throughput bin) cells, each holding the committed first decision plus
// one, or 0 while still empty. Four cells pack into one atomic word. Only
// the cells change after compile, each once, from empty to its one value; a
// stub has no cells and answers every lookup with a fallback.
type decisionTable struct {
	fp      uint64
	quantum float64
	k       int32
	xBins   int32
	wBins   int32 // the whole throughput domain, [0, overflow edge]
	boxBins int32 // the part compiled at bind, [0, tableThroughputSpan x top]
	planes  int32
	cells   []atomic.Uint32
	stub    bool
}

// steadyHorizon is the effective planning horizon absent the
// remaining-segments clamp: the horizon every mid-session decision uses, and
// the one tables are compiled for. Controller.horizon layers the
// session-tail clamp on top; a tail decision's shorter horizon misses the
// table's k check and falls back.
func steadyHorizon(cfg Config, ladder video.Ladder) int {
	k := cfg.Horizon
	if maxK := int(cfg.MaxHorizonSeconds / ladder.SegmentSeconds); maxK >= 1 && k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}

// tableQuantum returns the quantization step a table-backed controller
// solves at: TableQuantum when set, else MemoQuantum. Config.Validate
// guarantees it is positive whenever a table is attached.
func (c Config) tableQuantum() float64 {
	if c.TableQuantum > 0 {
		return c.TableQuantum
	}
	return c.MemoQuantum
}

// tableKey reduces the config to what a compiled table depends on: the
// model fingerprint's inputs, the horizon, the §5.1 cap mode and the
// quantum. Memo sizing, the memo quantum it overrides and the shared cache
// shape which states a session visits, never the decision at a state.
func (c Config) tableKey() Config {
	c.TableQuantum = c.tableQuantum()
	c.MemoQuantum, c.SolveMemoSize, c.SharedCache, c.DecisionTable = 0, 0, nil, nil
	return c
}

// stubTable is a fallback-only table for the policy.
func stubTable(p *Policy) *decisionTable {
	return &decisionTable{fp: p.fp, quantum: p.tq, k: int32(p.k), stub: true}
}

// policy returns the set's policy for the identity, building it on first use
// under the set lock: it reuses the compiled table of a policy with the same
// table identity, or compiles one. Past the budget it returns a private
// policy with a stub table and inserts nothing.
func (s *DecisionTables) policy(cfg Config, ladder video.Ladder, bufferCap units.Seconds) *Policy {
	key := cfg.tableKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	var table *decisionTable
	for _, p := range s.policies {
		if p.cap != bufferCap || !sameLadder(p.ladder, ladder) {
			continue
		}
		if p.cfg == cfg {
			return p
		}
		if p.cfg.tableKey() == key {
			table = p.table
		}
	}
	p := newPolicy(cfg, ladder, bufferCap)
	if len(s.policies) >= s.maxTables {
		p.table = stubTable(p)
		return p
	}
	if table == nil {
		table = stubTable(p)
		if table.planGeometry(ladder, bufferCap) {
			s.stats.CompileSolves += table.compile(p)
			table.stub = false
			s.tables = append(s.tables, table)
		} else {
			s.stats.Stubs++
		}
	}
	p.table = table
	s.policies = append(s.policies, p)
	return p
}

// anyPolicy returns the set's first policy with exactly this config and
// ladder, at whatever cap, or nil: where Init starts a controller.
func (s *DecisionTables) anyPolicy(cfg Config, ladder video.Ladder) *Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.policies {
		if p.cfg == cfg && sameLadder(p.ladder, ladder) {
			return p
		}
	}
	return nil
}

// planGeometry derives the grid from the ladder and buffer cap, reporting
// whether the table is compilable: a finite positive cap, a ladder that fits
// the 1-byte cell encoding, and a compiled box within maxTableCells. The
// throughput axis runs to the overflow edge, clamped so the whole grid stays
// within maxTableCells but never below the compiled box.
func (t *decisionTable) planGeometry(ladder video.Ladder, bufferCap units.Seconds) bool {
	cap64 := float64(bufferCap)
	if !(cap64 > 0) || math.IsInf(cap64, 0) || ladder.Len() == 0 || ladder.Len() > math.MaxUint8 {
		return false
	}
	xBins := math.Round(cap64/t.quantum) + 1
	boxBins := math.Ceil(tableThroughputSpan*float64(ladder.Max())/t.quantum) + 1
	planes := float64(ladder.Len() + 1) // prev in {NoRung, 0, ..., len-1}
	if !(xBins >= 1) || !(boxBins >= 1) || xBins*boxBins*planes > maxTableCells {
		return false
	}
	wBins := min(math.Ceil(float64(overflowEdge(ladder, bufferCap))/t.quantum)+1,
		math.Floor(maxTableCells/(xBins*planes)))
	if !(wBins > boxBins) { // NaN included
		wBins = boxBins
	}
	t.xBins, t.wBins, t.boxBins, t.planes = int32(xBins), int32(wBins), int32(boxBins), int32(planes)
	return true
}

// compile fills the box of cells compiled at bind — every plane and buffer
// bin, throughput up to tableThroughputSpan x the top rung — and leaves the
// rest of the domain empty. It returns the number of planning problems
// solved, counted apart from any controller's SolveStats.
func (t *decisionTable) compile(p *Policy) uint64 {
	var st SolveStats
	t.cells = make([]atomic.Uint32, (int(t.planes)*int(t.xBins)*int(t.wBins)+3)/4)
	for row := int32(0); row < t.planes*t.xBins; row++ {
		for wi := int32(0); wi < t.boxBins; wi++ {
			t.fill(p, &st, row*t.wBins+wi)
		}
	}
	return st.Solves
}

// fill solves one cell, publishes it and returns its decision: the decision
// the solver commits at the cell's exact quantized state, mirroring Decide's
// solver path bit for bit — the policy's cost model, the same quantized
// values (bin index times quantum, the identical expression quantize
// produces), the same §5.1 throughput cap and the same receding-horizon
// infeasibility fallback (solveFirstRung). Solver work counts into st. The
// cell's byte is ORed into its word, so fills of neighbouring cells never
// lose each other, and a racing fill of the same cell stores the same byte.
//
//soda:noalloc
func (t *decisionTable) fill(p *Policy, st *SolveStats, cell int32) int {
	row, wi := cell/t.wBins, cell%t.wBins
	prev, xi := int(row/t.xBins)-1, row%t.xBins
	x0 := units.Seconds(float64(xi) * t.quantum)
	omega := units.Mbps(float64(wi) * t.quantum)
	maxRung := p.ladder.Len() - 1
	if p.cfg.CapToThroughput {
		maxRung = max(p.ladder.CapIndex(omega), prev)
	}
	omegas := [1]units.Mbps{omega}
	rung := solveFirstRung(&p.model, st, p.cfg.UseBruteForce, omegas[:], x0, prev, int(t.k), maxRung)
	word, b := &t.cells[cell/4], uint32(rung+1)<<(cell%4*8)
	for old := word.Load(); !word.CompareAndSwap(old, old|b); old = word.Load() {
	}
	return rung
}

// lookup returns the decision in an already-quantized state's cell, or -1:
// with the cell's index when the cell is still empty, with cell -1 when the
// state lies outside the domain. x and w are the values Decide quantized at
// this table's quantum, so dividing by the quantum recovers the bin index
// exactly (the value is a bin index times the quantum; the round shakes out
// the float error, which is orders of magnitude below half a bin).
// Out-of-domain, non-finite and session-tail states report a miss — never a
// clamped cell. The throughput cap needs no check: the cell was solved with
// the cap derived from the cell's own (omega, prev), the same pure function
// Decide applies.
//
//soda:noalloc
func (t *decisionTable) lookup(x units.Seconds, w units.Mbps, prev, k int) (rung int, cell int32) {
	if t.stub || int32(k) != t.k {
		return -1, -1
	}
	plane := int32(prev) + 1
	if plane < 0 || plane >= t.planes {
		return -1, -1
	}
	xi := math.Round(float64(x) / t.quantum)
	if !(xi >= 0 && xi <= float64(t.xBins-1)) { // NaN and ±Inf fail too
		return -1, -1
	}
	wi := math.Round(float64(w) / t.quantum)
	if !(wi >= 0 && wi <= float64(t.wBins-1)) {
		return -1, -1
	}
	cell = (plane*t.xBins+int32(xi))*t.wBins + int32(wi)
	return int(t.cells[cell/4].Load()>>(cell%4*8)&0xff) - 1, cell
}

// filled counts the cells holding a decision. It reads every word, so it
// runs at snapshot time, never on a decision.
func (t *decisionTable) filled() int {
	n := 0
	for i := range t.cells {
		w := t.cells[i].Load()
		w |= w >> 4
		w |= w >> 2
		w |= w >> 1
		n += bits.OnesCount32(w & 0x01010101)
	}
	return n
}

// info snapshots the table's shape for CompileTable and reports.
func (t *decisionTable) info() TableInfo {
	return TableInfo{
		Fingerprint: t.fp,
		Quantum:     t.quantum,
		Horizon:     int(t.k),
		XBins:       int(t.xBins),
		WBins:       int(t.wBins),
		Planes:      int(t.planes),
		Cells:       t.filled(),
		Stub:        t.stub,
	}
}

// TableInfo describes one compiled decision table.
type TableInfo struct {
	// Fingerprint is the model fingerprint the table serves.
	Fingerprint uint64
	// Quantum is the quantization step of both grid axes.
	Quantum float64
	// Horizon is the steady-state horizon the cells were solved at.
	Horizon int
	// XBins, WBins and Planes are the grid dimensions: buffer bins,
	// throughput bins up to the overflow edge, and previous-rung planes
	// (ladder size plus the no-previous-rung plane).
	XBins, WBins, Planes int
	// Cells counts the cells holding a decision at the snapshot: the
	// compiled box plus the cells filled since (0 for a stub).
	Cells int
	// Stub reports a fallback-only table: oversized geometry or a binding
	// past the set's table budget.
	Stub bool
}

// CompileTable eagerly binds the set's policy for the configuration,
// compiling its table (or returning the already-compiled one), so harnesses
// can pay the compile cost at boot instead of on the first session's first
// decision. The config's DecisionTable field is set to the receiver, so the
// policy is the one the configuration's controllers bind.
func (s *DecisionTables) CompileTable(cfg Config, ladder video.Ladder, bufferCap units.Seconds) (TableInfo, error) {
	cfg.DecisionTable = s
	if err := validateFor(cfg, ladder); err != nil {
		return TableInfo{}, err
	}
	if cfg.tableQuantum() <= 0 {
		return TableInfo{}, fmt.Errorf("core: decision table needs a positive quantum (TableQuantum or MemoQuantum)")
	}
	if ladder.Len() == 0 {
		return TableInfo{}, fmt.Errorf("core: decision table needs a non-empty ladder")
	}
	if !(bufferCap > 0) {
		return TableInfo{}, fmt.Errorf("core: non-positive buffer cap %v", bufferCap)
	}
	return s.policy(cfg, ladder, bufferCap).table.info(), nil
}

// TableStats is a point-in-time snapshot of a set's compiled tables,
// surfaced through the soda-server gauges and experiment reports. Lookup,
// hit and fallback traffic is per-controller state (SolveStats) — the hot
// path touches no shared counters.
type TableStats struct {
	// Tables counts compiled tables; Stubs counts the set's fallback-only
	// tables (oversized geometries). Bindings past the budget get private
	// stubs the set does not hold, so they count in neither.
	Tables int
	Stubs  int
	// Cells counts the cells holding a decision across tables: the compiled
	// boxes plus the cells filled on first touch so far.
	Cells int
	// CompileSolves is the total planning problems solved compiling them.
	CompileSolves uint64
}

// String renders the one-line summary used by the experiment reports.
func (s TableStats) String() string {
	return fmt.Sprintf("tables %d (+%d stubs) cells %d compile-solves %d",
		s.Tables, s.Stubs, s.Cells, s.CompileSolves)
}

// Stats snapshots the set. It takes the set lock, so concurrent bindings
// serialize with it, and counts the filled cells of every table, so it costs
// one pass over the set's cell words; decisions are unaffected and keep no
// shared counter for it.
func (s *DecisionTables) Stats() TableStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Tables = len(s.tables)
	for _, t := range s.tables {
		st.Cells += t.filled()
	}
	return st
}
