package core

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

// size reports how many policies the set holds.
func (s *DecisionTables) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.policies)
}

// TestControllerFootprint pins the per-session controller at two cache
// lines: everything else a decision reads lives in the shared Policy.
func TestControllerFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Controller{}); n > 128 {
		t.Fatalf("core.Controller is %d B, want <= 128", n)
	}
	// A table hit writes only the table counters; they must sit in the
	// first cache line next to the policy pointer.
	var c Controller
	if end := unsafe.Offsetof(c.stats) + unsafe.Offsetof(c.stats.TableFallbacks) + 8; end > 64 {
		t.Fatalf("table counters end at byte %d, want within the first 64", end)
	}
}

// TestSolveStatsSurviveCapChange pins that solver counters accumulate across
// buffer cap changes: a controller deciding once at each of three caps
// reports the sum of what three single-cap controllers report.
func TestSolveStatsSurviveCapChange(t *testing.T) {
	ladder := video.YouTube4K()
	caps := []units.Seconds{20, 20.5, 30}
	ctx := func(cap units.Seconds) *abr.Context {
		return &abr.Context{
			Buffer:    units.Seconds(10),
			BufferCap: cap,
			PrevRung:  2,
			Ladder:    ladder,
			Predict:   func(units.Seconds) units.Mbps { return units.Mbps(9) },
		}
	}
	c := New(DefaultConfig(), ladder)
	var want SolveStats
	for _, cap := range caps {
		c.Decide(ctx(cap))
		fresh := New(DefaultConfig(), ladder)
		fresh.Decide(ctx(cap))
		want.Add(fresh.SolveStats())
	}
	got := c.SolveStats()
	if got != want {
		t.Fatalf("stats after caps %v = %+v, want %+v", caps, got, want)
	}
	if got.Solves < uint64(len(caps)) {
		t.Fatalf("%d solves over %d cold decides", got.Solves, len(caps))
	}
}

// TestPolicySharing pins the sharing scope: controllers on one set with an
// equal identity share one Policy, configs that differ only in knobs a table
// does not depend on share its compiled table, a controller without a set
// builds its own, and Init+Prewarm on a set allocate nothing once the policy
// exists — on a recycled slot and, without a memo, on a fresh one.
func TestPolicySharing(t *testing.T) {
	ladder := video.Mobile()
	cap12 := units.Seconds(12)
	tables := NewDecisionTables()
	cfg := tableTestConfig(tables)
	a, b := New(cfg, ladder), New(cfg, ladder)
	a.Prewarm(cap12)
	b.Prewarm(cap12)
	if a.pol != b.pol {
		t.Fatal("equal identities on one set got distinct policies")
	}
	memoOff := withCfg(cfg, func(c *Config) { c.SolveMemoSize = 0; c.MemoQuantum = 0.3 })
	c := New(memoOff, ladder)
	c.Prewarm(cap12)
	if c.pol == a.pol || c.pol.table != a.pol.table {
		t.Fatal("memo-only variant must get its own policy over the same compiled table")
	}
	if st := tables.Stats(); st.Tables != 1 {
		t.Fatalf("one table identity compiled %s", st)
	}
	private := New(plainTestConfig(), ladder)
	private.Prewarm(cap12)
	if private.pol.table != nil {
		t.Fatal("a controller without a set bound a table")
	}

	// Recycled slot: same identity, memo backing array reused.
	if allocs := testing.AllocsPerRun(100, func() {
		a.Init(cfg, ladder)
		a.Prewarm(cap12)
	}); allocs != 0 {
		t.Errorf("Init+Prewarm on a recycled slot: %.1f allocs", allocs)
	}
	// Fresh slot without a memo (the fleet configuration): Init starts from
	// the set's policy. A second cap the set already holds rebinds by lookup.
	var fresh [4]Controller
	c.Prewarm(units.Seconds(15))
	i := 0
	if allocs := testing.AllocsPerRun(3, func() {
		fresh[i].Init(memoOff, ladder)
		fresh[i].Prewarm(cap12)
		fresh[i].Prewarm(units.Seconds(15))
		i++
	}); allocs != 0 {
		t.Errorf("Init+Prewarm on a fresh slot: %.1f allocs", allocs)
	}
}

// TestDecisionTablesCapChurnBounded binds 10,000 distinct buffer caps on one
// set: the set must stay within its budget — past it, bindings get private
// stub policies — and the cost per bind must stay flat rather than grow with
// the number of identities seen.
func TestDecisionTablesCapChurnBounded(t *testing.T) {
	const budget, binds, window = 8, 10000, 1000
	ladder := video.Mobile()
	tables := NewDecisionTablesSized(budget)
	c := New(tableTestConfig(tables), ladder)
	elapsed := make([]time.Duration, binds/window)
	for i := 0; i < binds; i++ {
		start := time.Now()
		c.Prewarm(units.Seconds(8 + 0.001*float64(i)))
		elapsed[i/window] += time.Since(start)
	}
	if n := tables.size(); n > budget {
		t.Fatalf("set holds %d policies after %d caps, budget %d", n, binds, budget)
	}
	if st := tables.Stats(); st.Tables != budget || st.Stubs != 0 {
		t.Fatalf("set stats after cap churn: %s", st)
	}
	if !c.pol.table.stub {
		t.Fatal("a binding past the budget got a compiled table")
	}
	// The first window pays the budget's compiles; compare the second with
	// the last. A scan or sort over everything ever bound grows ~10x here.
	if early, late := elapsed[1], elapsed[len(elapsed)-1]; late > 4*early+time.Millisecond {
		t.Fatalf("bind cost grew with identities seen: %v per %d binds early, %v late", early, window, late)
	}
}
