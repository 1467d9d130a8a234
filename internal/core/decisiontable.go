package core

import (
	"fmt"
	"math"
	"sync"

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
// throughput in [0, 2x the ladder's top rung] at its quantum, for the
// steady-state horizon only. Any state outside that box — session-tail
// horizons, out-of-range or non-finite predictions — falls through to the
// ordinary memo/shared-cache/solver path untouched; states are never clamped
// into the table. Oversized geometries compile to a fallback-only stub.
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
	policies  []*Policy
	maxTables int
	//soda:guard mu
	stats TableStats // Tables is the compiled count
}

// DefaultMaxTables bounds how many policies (and so compiled tables) one set
// holds. A deployment serves a handful of (ladder, config, cap) tuples; the
// bound exists so identity churn (e.g. per-request buffer caps on a server)
// degrades to solver fallbacks, not unbounded memory.
const DefaultMaxTables = 64

// maxTableCells bounds one table's cell count (1-byte cells, so the largest
// table is ~8 MB). Geometries above it become fallback-only stubs.
const maxTableCells = 1 << 23

// tableThroughputSpan is the throughput domain's multiple of the ladder's
// top rung. Above the top rung the §5.1 cap pins the candidate set, but the
// buffer dynamics keep changing with the prediction, so the domain extends to
// 2x and everything beyond falls back to the solver (never clamped).
const tableThroughputSpan = 2.0

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

// decisionTable is one immutable compiled table. rungs holds the committed
// first decision for every (prev+1, buffer bin, throughput bin) cell; a stub
// has no cells and answers every lookup with a fallback.
type decisionTable struct {
	fp      uint64
	quantum float64
	k       int32
	xBins   int32
	wBins   int32
	planes  int32
	rungs   []int8
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
			s.stats.Tables++
			s.stats.Cells += len(table.rungs)
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
// the 1-byte cell encoding, and a cell count within maxTableCells.
func (t *decisionTable) planGeometry(ladder video.Ladder, bufferCap units.Seconds) bool {
	cap64 := float64(bufferCap)
	if !(cap64 > 0) || math.IsInf(cap64, 0) || ladder.Len() == 0 || ladder.Len() > 127 {
		return false
	}
	xBins := math.Round(cap64/t.quantum) + 1
	wBins := math.Ceil(tableThroughputSpan*float64(ladder.Max())/t.quantum) + 1
	planes := float64(ladder.Len() + 1) // prev in {NoRung, 0, ..., len-1}
	if !(xBins >= 1) || !(wBins >= 1) || xBins*wBins*planes > maxTableCells {
		return false
	}
	t.xBins, t.wBins, t.planes = int32(xBins), int32(wBins), int32(planes)
	return true
}

// compile fills every cell with the decision the solver commits at that
// cell's exact quantized state, mirroring Decide's solver path bit for bit:
// the policy's cost model, the same quantized values (bin index times quantum
// — the identical expression quantize produces), the same §5.1 throughput
// cap, the same receding-horizon infeasibility fallback (solveFirstRung). It
// returns the number of planning problems solved, counted apart from any
// controller's SolveStats.
func (t *decisionTable) compile(p *Policy) uint64 {
	var st SolveStats
	n := p.ladder.Len()
	t.rungs = make([]int8, int(t.planes)*int(t.xBins)*int(t.wBins))
	idx := 0
	for prev := -1; prev < n; prev++ {
		for xi := int32(0); xi < t.xBins; xi++ {
			x0 := units.Seconds(float64(xi) * t.quantum)
			for wi := int32(0); wi < t.wBins; wi++ {
				omega := units.Mbps(float64(wi) * t.quantum)
				maxRung := n - 1
				if p.cfg.CapToThroughput {
					maxRung = p.ladder.CapIndex(omega)
					if prev > maxRung {
						maxRung = prev
					}
				}
				omegas := [1]units.Mbps{omega}
				t.rungs[idx] = int8(solveFirstRung(&p.model, &st, p.cfg.UseBruteForce, omegas[:], x0, prev, int(t.k), maxRung))
				idx++
			}
		}
	}
	return st.Solves
}

// lookup returns the compiled decision for an already-quantized state, or a
// fallback. x and w are the values Decide quantized at this table's quantum,
// so dividing by the quantum recovers the bin index exactly (the value is a
// bin index times the quantum; the round shakes out the float error, which
// is orders of magnitude below half a bin). Out-of-domain, non-finite and
// session-tail states report a miss — never a clamped cell. The throughput
// cap needs no check: the cell was compiled with the cap derived from the
// cell's own (omega, prev), the same pure function Decide applies.
//
//soda:noalloc
func (t *decisionTable) lookup(x units.Seconds, w units.Mbps, prev, k int) (int, bool) {
	if t.stub || int32(k) != t.k {
		return 0, false
	}
	plane := int32(prev) + 1
	if plane < 0 || plane >= t.planes {
		return 0, false
	}
	xi := math.Round(float64(x) / t.quantum)
	if !(xi >= 0 && xi <= float64(t.xBins-1)) { // NaN and ±Inf fail too
		return 0, false
	}
	wi := math.Round(float64(w) / t.quantum)
	if !(wi >= 0 && wi <= float64(t.wBins-1)) {
		return 0, false
	}
	return int(t.rungs[(plane*t.xBins+int32(xi))*t.wBins+int32(wi)]), true
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
		Cells:       len(t.rungs),
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
	// throughput bins and previous-rung planes (ladder size plus the
	// no-previous-rung plane).
	XBins, WBins, Planes int
	// Cells is the compiled cell count (0 for a stub).
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
	// Cells is the total compiled cell count across tables.
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
// serialize with it; lookups are unaffected.
func (s *DecisionTables) Stats() TableStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
