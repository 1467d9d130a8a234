package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

func TestDecisionTablesRejectBadBudget(t *testing.T) {
	for _, budget := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("budget %d: no panic", budget)
				}
			}()
			NewDecisionTablesSized(budget)
		}()
	}
}

// TestCompileTableGeometryAndIdempotence checks the eager compile pass: the
// grid must cover [0, cap] x [0, W] at the quantum, W the overflow edge, with
// one plane per previous rung (plus the no-previous plane); the throughput
// bins up to 2x the top rung must be compiled and the rest empty; and
// recompiling the same identity must return the existing table instead of
// solving again.
func TestCompileTableGeometryAndIdempotence(t *testing.T) {
	tables := NewDecisionTables()
	cfg := DefaultConfig()
	cfg.TableQuantum = 0.5
	ladder := video.YouTube4K()

	info, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
	if err != nil {
		t.Fatal(err)
	}
	if info.Stub {
		t.Fatalf("default geometry compiled to a stub: %+v", info)
	}
	if info.Quantum != 0.5 || info.Horizon != 5 {
		t.Fatalf("quantum/horizon = %v/%d, want 0.5/5", info.Quantum, info.Horizon)
	}
	if want := int(math.Round(20/0.5)) + 1; info.XBins != want {
		t.Fatalf("xBins = %d, want %d", info.XBins, want)
	}
	// W = 60 Mb/s x (20 s + 2 s) / 2 s = 660 Mb/s.
	if want := int(math.Ceil(660/0.5)) + 1; info.WBins != want {
		t.Fatalf("wBins = %d, want %d (overflow edge 660 Mb/s)", info.WBins, want)
	}
	if want := ladder.Len() + 1; info.Planes != want {
		t.Fatalf("planes = %d, want %d", info.Planes, want)
	}
	boxWBins := int(math.Ceil(2*float64(ladder.Max())/0.5)) + 1
	if info.Cells != info.XBins*boxWBins*info.Planes {
		t.Fatalf("cells = %d, want the compiled box xBins*boxWBins*planes = %d",
			info.Cells, info.XBins*boxWBins*info.Planes)
	}

	st := tables.Stats()
	if st.Tables != 1 || st.Stubs != 0 || st.Cells != info.Cells || st.CompileSolves < uint64(info.Cells) {
		t.Fatalf("stats after one compile: %s", st)
	}
	again, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
	if err != nil {
		t.Fatal(err)
	}
	if again != info {
		t.Fatalf("recompile returned a different table: %+v vs %+v", again, info)
	}
	if st2 := tables.Stats(); st2 != st {
		t.Fatalf("recompile changed the set: %s -> %s", st, st2)
	}
}

// TestDecisionTableGeometryClamp pins the two clamps on the throughput axis:
// a domain that would exceed maxTableCells stops at the cell budget, and a
// domain whose overflow edge lies below the compiled box (a cap shorter than
// a segment) keeps the box, so no identity compiles smaller than the box.
func TestDecisionTableGeometryClamp(t *testing.T) {
	ladder := video.YouTube4K()
	box := func(q float64) int32 { return int32(math.Ceil(2*float64(ladder.Max())/q)) + 1 }

	fine := &decisionTable{quantum: 0.05}
	if !fine.planGeometry(ladder, units.Seconds(20)) {
		t.Fatal("a box within the cell budget did not plan")
	}
	if cells := int(fine.planes) * int(fine.xBins) * int(fine.wBins); cells > maxTableCells {
		t.Fatalf("clamped geometry holds %d cells, over the %d budget", cells, maxTableCells)
	}
	if full := int32(math.Ceil(660/0.05)) + 1; fine.wBins >= full || fine.wBins <= box(0.05) {
		t.Fatalf("wBins = %d, want clamped strictly between the box %d and the edge %d", fine.wBins, box(0.05), full)
	}

	short := &decisionTable{quantum: 0.5}
	if !short.planGeometry(ladder, units.Seconds(1)) { // W = 60 x 3 / 2 = 90 < 120
		t.Fatal("a short-cap geometry did not plan")
	}
	if short.wBins != box(0.5) || short.boxBins != box(0.5) {
		t.Fatalf("short cap: wBins/boxBins = %d/%d, want both the box %d", short.wBins, short.boxBins, box(0.5))
	}
}

func TestCompileTableValidation(t *testing.T) {
	tables := NewDecisionTables()
	ladder := video.YouTube4K()
	bad := DefaultConfig()
	bad.Horizon = 0
	if _, err := tables.CompileTable(bad, ladder, units.Seconds(20)); err == nil {
		t.Error("invalid config accepted")
	}
	noQuantum := DefaultConfig()
	noQuantum.MemoQuantum = 0
	if _, err := tables.CompileTable(noQuantum, ladder, units.Seconds(20)); err == nil {
		t.Error("zero quantum accepted")
	}
	if _, err := tables.CompileTable(DefaultConfig(), video.Ladder{}, units.Seconds(20)); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := tables.CompileTable(DefaultConfig(), ladder, units.Seconds(0)); err == nil {
		t.Error("zero cap accepted")
	}
}

// tableTestConfig is the table-backed configuration the domain tests run:
// defaults plus the given set at quantum 0.5.
func tableTestConfig(tables *DecisionTables) Config {
	cfg := DefaultConfig()
	cfg.DecisionTable = tables
	cfg.TableQuantum = 0.5
	return cfg
}

// plainTestConfig is the matching table-free reference: same quantization
// step through MemoQuantum, so both controllers solve identical states.
func plainTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MemoQuantum = 0.5
	return cfg
}

// TestDecisionTableFallbackDomain drives states just outside the table's
// domain — buffer negative, throughput beyond the overflow edge W, non-finite
// predictions, session-tail horizons — and checks each one falls back to the
// solver (fallback counter up, solver ran) while still deciding exactly as
// the table-free controller does. States are never clamped into the table: a
// clamp would change the decision and break the bit-equality below.
// In-domain rows pin the complement: inside the compiled box a table hit with
// no solve; past the box the first touch solves and fills exactly one cell
// (a fallback that raises the set's cell count by one), and the same state
// then hits. Either way the same decision.
func TestDecisionTableFallbackDomain(t *testing.T) {
	ladder := video.YouTube4K() // top rung 60 => box [0, 120], domain [0, 660] at cap 20
	boxMax := 2 * float64(ladder.Max())
	edge := float64(overflowEdge(ladder, units.Seconds(20)))
	const (
		hit = iota
		fill
		fallback
	)
	cases := []struct {
		name    string
		buffer  float64
		omega   float64
		prev    int
		segment int // of 600
		kind    int
	}{
		{"in-domain-mid", 8, 12, 2, 10, hit},
		{"in-domain-origin", 0, 0.2, -1, 0, hit},
		{"in-domain-buffer-edge", 17.9, 30, 4, 10, hit},
		{"in-domain-box-edge", 3, boxMax - 0.1, 5, 10, hit}, // quantizes to exactly 2x top
		{"throughput-past-box", 3, boxMax + 0.3, 5, 10, fill},
		{"in-domain-throughput-edge", 3, edge - 0.1, 5, 10, fill}, // quantizes to exactly W
		{"throughput-past-domain", 3, edge + 0.3, 5, 10, fallback},
		{"throughput-absurd", 3, 1e9, 5, 10, fallback},
		{"throughput-nan", 8, math.NaN(), 2, 10, fallback},
		{"throughput-inf", 8, math.Inf(1), 2, 10, fallback},
		{"buffer-negative", -0.3, 12, 2, 10, fallback},
		{"session-tail-horizon", 8, 12, 2, 598, fallback}, // 2 segments left => k=2, table holds k=5
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tables := NewDecisionTables()
			tabled := New(tableTestConfig(tables), ladder)
			plain := New(plainTestConfig(), ladder)
			tabled.Prewarm(units.Seconds(20))
			cellsBefore := tables.Stats().Cells
			omega := units.Mbps(tc.omega)
			ctx := func() *abr.Context {
				return &abr.Context{
					Buffer:        units.Seconds(tc.buffer),
					BufferCap:     units.Seconds(20),
					PrevRung:      tc.prev,
					Ladder:        ladder,
					SegmentIndex:  tc.segment,
					TotalSegments: 600,
					Predict:       func(units.Seconds) units.Mbps { return omega },
				}
			}
			got, want := tabled.Decide(ctx()), plain.Decide(ctx())
			if got != want {
				t.Fatalf("tabled decision %+v != plain %+v", got, want)
			}
			st := tabled.SolveStats()
			if st.TableLookups != 1 {
				t.Fatalf("table lookups = %d, want 1", st.TableLookups)
			}
			filled := tables.Stats().Cells - cellsBefore
			switch tc.kind {
			case hit:
				if st.TableHits != 1 || st.TableFallbacks != 0 {
					t.Fatalf("hits/fallbacks = %d/%d, want 1/0", st.TableHits, st.TableFallbacks)
				}
				if st.Solves != 0 {
					t.Fatalf("in-domain state solved %d problems despite the table", st.Solves)
				}
			case fill, fallback:
				if st.TableFallbacks != 1 || st.TableHits != 0 {
					t.Fatalf("fallbacks/hits = %d/%d, want 1/0", st.TableFallbacks, st.TableHits)
				}
				if st.Solves == 0 {
					t.Fatal("fallback state never reached the solver")
				}
			}
			wantFilled := 0
			if tc.kind == fill {
				wantFilled = 1
			}
			if filled != wantFilled {
				t.Fatalf("the decision filled %d cells, want %d", filled, wantFilled)
			}
			if tc.kind != fill {
				return
			}
			// The filled cell now answers the same state: a hit, no solve.
			before := tabled.SolveStats()
			if again := tabled.Decide(ctx()); again != want {
				t.Fatalf("decision from the filled cell %+v != plain %+v", again, want)
			}
			if d := tabled.SolveStats().Delta(before); d.TableHits != 1 || d.Solves != 0 {
				t.Fatalf("after the fill: %d hits, %d solves, want 1 hit and no solve", d.TableHits, d.Solves)
			}
		})
	}
}

// TestDecisionTableFillAllocsNothing pins the first-touch fill at zero
// allocations: every Decide below lands on a different empty cell past the
// compiled box and fills it.
func TestDecisionTableFillAllocsNothing(t *testing.T) {
	ladder := video.YouTube4K()
	tables := NewDecisionTables()
	c := New(tableTestConfig(tables), ladder)
	c.Prewarm(units.Seconds(20))
	const runs = 100
	ctxs := make([]*abr.Context, runs+1) // AllocsPerRun adds one warm-up call
	for i := range ctxs {
		omega := units.Mbps(2*float64(ladder.Max()) + 0.5*float64(i+1))
		ctxs[i] = &abr.Context{
			Buffer:        units.Seconds(6),
			BufferCap:     units.Seconds(20),
			PrevRung:      3,
			Ladder:        ladder,
			TotalSegments: 600,
			Predict:       func(units.Seconds) units.Mbps { return omega },
		}
	}
	before, next := tables.Stats().Cells, 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.Decide(ctxs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a filling Decide allocates %v times", allocs)
	}
	if filled := tables.Stats().Cells - before; filled != len(ctxs) {
		t.Fatalf("%d decisions filled %d cells, want one each", len(ctxs), filled)
	}
}

// TestDecisionTableStubsAndBudget checks the two degrade-to-fallback paths:
// a geometry too large for maxTableCells compiles to a stub the set holds,
// and a binding past the set's budget gets a private stub the set does not
// hold. Either way controllers keep deciding exactly like the table-free
// path, with every lookup a fallback, instead of failing or compiling
// unboundedly (the httpseg cap-churn defence).
func TestDecisionTableStubsAndBudget(t *testing.T) {
	ladder := video.YouTube4K()

	t.Run("oversized-geometry", func(t *testing.T) {
		tables := NewDecisionTables()
		cfg := DefaultConfig() // MemoQuantum 0.01 is the table quantum here
		cfg.DecisionTable = tables
		hugeCap := units.Seconds(1e6)
		info, err := tables.CompileTable(cfg, ladder, hugeCap)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Stub || info.Cells != 0 {
			t.Fatalf("absurd geometry compiled: %+v", info)
		}
		plainCfg := DefaultConfig()
		tabled, plain := New(cfg, ladder), New(plainCfg, ladder)
		stream := contextStreamAt(ladder, hugeCap, 777, 50)
		for i := range stream {
			if got, want := tabled.Decide(stream[i]), plain.Decide(stream[i]); got != want {
				t.Fatalf("decision %d: stubbed %+v != plain %+v", i, got, want)
			}
		}
		st := tabled.SolveStats()
		if st.TableLookups == 0 || st.TableHits != 0 || st.TableFallbacks != st.TableLookups {
			t.Fatalf("stub traffic books: %d lookups, %d hits, %d fallbacks",
				st.TableLookups, st.TableHits, st.TableFallbacks)
		}
		if ts := tables.Stats(); ts.Tables != 0 || ts.Stubs != 1 {
			t.Fatalf("set stats after oversized bind: %s", ts)
		}
	})

	t.Run("budget-exhausted", func(t *testing.T) {
		tables := NewDecisionTablesSized(1)
		cfg := tableTestConfig(tables)
		first, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
		if err != nil {
			t.Fatal(err)
		}
		if first.Stub {
			t.Fatalf("first bind stubbed: %+v", first)
		}
		second, err := tables.CompileTable(cfg, ladder, units.Seconds(15))
		if err != nil {
			t.Fatal(err)
		}
		if !second.Stub {
			t.Fatal("bind past the budget compiled a second table")
		}
		tabled, plain := New(cfg, ladder), New(plainTestConfig(), ladder)
		stream := contextStreamAt(ladder, units.Seconds(15), 778, 50)
		for i := range stream {
			if got, want := tabled.Decide(stream[i]), plain.Decide(stream[i]); got != want {
				t.Fatalf("decision %d: over-budget %+v != plain %+v", i, got, want)
			}
		}
		if ts := tables.Stats(); ts.Tables != 1 || ts.Stubs != 0 {
			t.Fatalf("set stats after budget exhaustion: %s", ts)
		}
		if n := tables.size(); n != 1 {
			t.Fatalf("set holds %d policies past a budget of 1", n)
		}
	})
}

// contextStreamAt is a deterministic legal context stream at an arbitrary
// buffer cap (the abrtest helper is fixed at 20 s).
func contextStreamAt(ladder video.Ladder, bufferCap units.Seconds, seed uint64, n int) []*abr.Context {
	rng := newSplitMix(seed)
	out := make([]*abr.Context, n)
	prev := abr.NoRung
	for i := range out {
		omega := units.Mbps(0.3 + rng.float()*2.2*float64(ladder.Max()))
		out[i] = &abr.Context{
			Buffer:        units.Seconds(rng.float() * float64(bufferCap)),
			BufferCap:     bufferCap,
			PrevRung:      prev,
			Ladder:        ladder,
			SegmentIndex:  i,
			TotalSegments: n,
			Predict:       func(units.Seconds) units.Mbps { return omega },
		}
		prev = int(rng.float() * float64(ladder.Len()))
	}
	return out
}

// TestDecisionTableIdentitySeparation pins the table-identity contract: the
// model fingerprint deliberately excludes the quantum, the horizon and the
// §5.1 cap mode (they are state-key concerns for the caches), so the table
// identity must mix them back in — configurations agreeing on the
// fingerprint but differing in any of the three must get distinct tables.
func TestDecisionTableIdentitySeparation(t *testing.T) {
	tables := NewDecisionTables()
	ladder := video.YouTube4K()
	cap20 := units.Seconds(20)

	base := DefaultConfig()
	base.TableQuantum = 0.5
	fineQuantum := withCfg(base, func(c *Config) { c.TableQuantum = 0.25 })
	shortHorizon := withCfg(base, func(c *Config) { c.Horizon = 3 })
	noCap := withCfg(base, func(c *Config) { c.CapToThroughput = false })

	// Precondition: all three agree with base on the model fingerprint —
	// otherwise this test would silently stop covering the identity bits.
	fp := modelFingerprint(base, ladder, cap20)
	variants := []struct {
		name string
		cfg  Config
	}{{"quantum", fineQuantum}, {"horizon", shortHorizon}, {"cap-mode", noCap}}
	for _, v := range variants {
		if modelFingerprint(v.cfg, ladder, cap20) != fp {
			t.Fatalf("%s variant changed the model fingerprint; identity coverage lost", v.name)
		}
	}

	want := 0
	for _, cfg := range []Config{base, fineQuantum, shortHorizon, noCap, base /* repeat: no new table */} {
		if _, err := tables.CompileTable(cfg, ladder, cap20); err != nil {
			t.Fatal(err)
		}
		if want < 4 {
			want++
		}
		if st := tables.Stats(); st.Tables != want {
			t.Fatalf("tables = %d, want %d: %s", st.Tables, want, st)
		}
	}
}

// FuzzDecisionTableKey hammers quantization and identity keying at the
// table's domain edges: buffers at and beyond the cap (and negative),
// throughputs at and just above every rung (where the §5.1 cap binds, so a
// table keyed without the cap mode answers wrong), around the compiled box
// at 2x the ladder top and the overflow edge W, up to 1.1x W, NaN/Inf
// predictor outputs, and session-tail horizons, across four configurations
// sharing one table set — including pairs that agree on the model
// fingerprint and differ only in quantum or horizon, the cross-contamination
// cases the identity bits exist for. Every decision must either agree
// exactly with the table-free controller at the same quantum (hit, fill or
// fallback alike) or be a wait taken before the table; the traffic books
// must always balance.
//
// A concurrent phase then replays the same ops from parallel goroutines
// through variants of one configuration that differ only in knobs outside
// its model fingerprint — memo quantum and size, shared cache, table
// quantum — or in the pruning mode, the §5.1 cap mode or the buffer cap, all
// binding the same set: policies and tables are built, shared and filled
// under contention, and every variant must decide exactly like a controller
// with a private policy (no set) solving at the same quantum.
func FuzzDecisionTableKey(f *testing.F) {
	// An op is three bytes: combo (top two bits), buffer selector (next
	// three) and segments remaining less one (low three); previous rung plus
	// one; throughput selector (see decode). op and the selector helpers
	// below spell the seeds.
	op := func(combo, buf, remaining, prev int, omega byte) []byte {
		return []byte{byte(combo<<6 | buf<<3 | (remaining - 1)), byte(prev + 1), omega}
	}
	rungRel := func(rung, factor int) byte { return byte(rung<<3 | factor) }
	ofEdge := func(n int) byte { return byte(0x80 + n) } // n/114 of W
	const (
		atRung, aboveRung, wellAboveRung = 2, 3, 4 // 1x, 1.001x, 1.01x a rung
		twiceTop, pastBox                = 6, 7    // 2x, 2.01x: the box edge on the top rung
		nan, inf                         = 0xfe, 0xff
	)
	seed := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	// Cap-binding states: buffer at 70% and 80% of the cap, start-up and
	// mid-ladder previous rungs, throughput just above each rung (which
	// quantizes onto the rung, the largest prediction the cap holds there).
	// Under cap mode on and off these decide differently, so every combo and
	// the concurrent cap-mode variant see where a table keyed without the
	// cap mode would alias.
	for combo, rungs := range []int{6, 4, 6, 6} {
		var ops [][]byte
		for _, buf := range []int{3, 4} {
			for _, prev := range []int{-1, 2} {
				for rung := 0; rung < rungs; rung++ {
					for _, factor := range []int{aboveRung, wellAboveRung} {
						ops = append(ops, op(combo, buf, 8, prev, rungRel(rung, factor)))
					}
				}
			}
		}
		f.Add(seed(ops...))
	}
	// Domain-edge walk under every combo: the box edge, the overflow edge W
	// and past it, and buffer bins around the cap.
	for combo := 0; combo < 4; combo++ {
		f.Add(seed(
			op(combo, 2, 8, 5, rungRel(7, twiceTop)), op(combo, 2, 8, 5, rungRel(7, pastBox)),
			op(combo, 3, 8, 3, ofEdge(113)), op(combo, 3, 8, 3, ofEdge(114)),
			op(combo, 3, 8, 3, ofEdge(115)), op(combo, 4, 8, 1, ofEdge(125)),
			op(combo, 5, 8, 0, ofEdge(60)), op(combo, 6, 8, 2, rungRel(1, atRung)),
			op(combo, 1, 8, -1, ofEdge(1)), op(combo, 0, 8, -1, ofEdge(0)),
		))
	}
	// Non-finite predictions, negative buffers and session-tail horizons.
	f.Add(seed(
		op(0, 2, 8, 1, nan), op(1, 3, 8, 2, inf), op(2, 7, 8, 3, ofEdge(40)),
		op(3, 7, 8, 0, rungRel(2, atRung)), op(0, 4, 2, 2, ofEdge(30)), op(1, 2, 1, -1, ofEdge(90)),
		op(2, 3, 3, 4, rungRel(3, aboveRung)), op(3, 5, 4, 2, ofEdge(114)),
	))

	type combo struct {
		tabled, plain Config
		ladder        video.Ladder
		cap           units.Seconds
	}
	tables := NewDecisionTables()
	mk := func(mutate func(*Config), quantum float64, ladder video.Ladder, cap units.Seconds) combo {
		tc := DefaultConfig()
		mutate(&tc)
		tc.DecisionTable = tables
		tc.TableQuantum = quantum
		pc := DefaultConfig()
		mutate(&pc)
		pc.MemoQuantum = quantum
		return combo{tabled: tc, plain: pc, ladder: ladder, cap: cap}
	}
	noop := func(*Config) {}
	combos := [4]combo{
		mk(noop, 0.5, video.YouTube4K(), units.Seconds(20)),
		mk(noop, 0.5, video.Mobile(), units.Seconds(12)),
		// Same model fingerprint as combo 0, different quantum.
		mk(noop, 0.25, video.YouTube4K(), units.Seconds(20)),
		// Same model fingerprint as combo 0, different steady horizon.
		mk(func(c *Config) { c.Horizon = 3 }, 0.5, video.YouTube4K(), units.Seconds(20)),
	}
	// The concurrent variants, all on combo 1's set and ladder (a small
	// Mobile table keeps the extra compiles cheap).
	cache := NewSolveCache(1 << 12)
	base := combos[1].tabled
	variants := []struct {
		cfg Config
		cap units.Seconds
	}{
		{base, combos[1].cap},
		{withCfg(base, func(c *Config) { c.MemoQuantum = 0.3 }), combos[1].cap},
		{withCfg(base, func(c *Config) { c.SolveMemoSize = 0 }), combos[1].cap},
		{withCfg(base, func(c *Config) { c.SharedCache = cache }), combos[1].cap},
		{withCfg(base, func(c *Config) { c.TableQuantum = 0.25 }), combos[1].cap},
		{withCfg(base, func(c *Config) { c.DisablePruning = true }), combos[1].cap},
		{withCfg(base, func(c *Config) { c.CapToThroughput = false }), combos[1].cap},
		{base, units.Seconds(15)},
	}
	// Distinct table identities across combos and variants: the four combos,
	// plus the variants' quantum, pruning, cap-mode and buffer-cap tables.
	const identities = len(combos) + 4
	// Buffer as a fraction of the cap, straddling both ends, and throughput
	// factors relative to a rung; both include the illegal-side values the
	// table must refuse, never clamp.
	bufFrac := [8]float64{0, 0.013, 0.25, 0.7, 0.8, 0.89, 1.0, -0.02}
	rungFrac := [8]float64{0.5, 0.999, 1, 1.001, 1.01, 1.5, 2, 2.01}
	// decode turns one op into a decision context. The throughput selector
	// is NaN at 0xfe and +Inf at 0xff; below 0x80 it picks a rung (bits 3-6,
	// modulo the ladder) and a factor of it; otherwise its low seven bits
	// are a multiple of W/114, reaching 1.1x W.
	decode := func(b []byte, ladder video.Ladder, cap units.Seconds) func() *abr.Context {
		buffer := units.Seconds(bufFrac[b[0]>>3&7] * float64(cap))
		var omega units.Mbps
		switch sel := b[2]; {
		case sel == 0xfe:
			omega = units.Mbps(math.NaN())
		case sel == 0xff:
			omega = units.Mbps(math.Inf(1))
		case sel < 0x80:
			omega = ladder.Mbps(int(sel>>3) % ladder.Len()).Scale(rungFrac[sel&7])
		default:
			omega = overflowEdge(ladder, cap).Scale(float64(sel&0x7f) / 114)
		}
		prev := int(b[1]%uint8(ladder.Len()+1)) - 1
		const total = 600
		segment := total - 1 - int(b[0]&7) // 1..8 segments remaining
		return func() *abr.Context {
			return &abr.Context{
				Buffer:        buffer,
				BufferCap:     cap,
				PrevRung:      prev,
				Ladder:        ladder,
				SegmentIndex:  segment,
				TotalSegments: total,
				Predict:       func(units.Seconds) units.Mbps { return omega },
			}
		}
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		var tabled, plain [len(combos)]*Controller
		for i, cb := range combos {
			tabled[i] = New(cb.tabled, cb.ladder)
			plain[i] = New(cb.plain, cb.ladder)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			ci := int(ops[i] >> 6 & 3)
			cb := combos[ci]
			ctx := decode(ops[i:i+3], cb.ladder, cb.cap)
			before := tabled[ci].SolveStats()
			got, want := tabled[ci].Decide(ctx()), plain[ci].Decide(ctx())
			if got != want {
				c := ctx()
				t.Fatalf("op %d (combo %d, buffer %v, omega %v, prev %d, segment %d): tabled %+v != plain %+v",
					i/3, ci, c.Buffer, c.PredictSafe(units.Seconds(1)), c.PrevRung, c.SegmentIndex, got, want)
			}
			d := tabled[ci].SolveStats().Delta(before)
			if d.TableLookups > 1 || d.TableHits+d.TableFallbacks != d.TableLookups {
				t.Fatalf("op %d: table books broken: %d lookups, %d hits, %d fallbacks",
					i/3, d.TableLookups, d.TableHits, d.TableFallbacks)
			}
			if d.TableHits > 0 && d.Solves > 0 {
				t.Fatalf("op %d: table hit also solved %d problems", i/3, d.Solves)
			}
		}

		var wg sync.WaitGroup
		for vi, v := range variants {
			wg.Add(1)
			go func(vi int, cfg Config, cap units.Seconds) {
				defer wg.Done()
				ladder := combos[1].ladder
				shared, private := New(cfg, ladder), New(privateTwin(cfg), ladder)
				for i := 0; i+2 < len(ops); i += 3 {
					ctx := decode(ops[i:i+3], ladder, cap)
					if got, want := shared.Decide(ctx()), private.Decide(ctx()); got != want {
						t.Errorf("variant %d op %d: shared-set %+v != private policy %+v", vi, i/3, got, want)
						return
					}
				}
			}(vi, v.cfg, v.cap)
		}
		wg.Wait()

		st := tables.Stats()
		if st.Stubs != 0 {
			t.Fatalf("fuzz configurations must all compile, got stubs: %s", st)
		}
		if st.Tables > identities {
			t.Fatalf("%d tables for %d table identities (identity churn): %s", st.Tables, identities, st)
		}
		if n := tables.size(); n > len(combos)+len(variants) {
			t.Fatalf("%d policies for %d identities", n, len(combos)+len(variants))
		}
	})
}

// privateTwin is cfg without a table set: a controller that builds its own
// policy and solves at cfg's table quantum (the memo on, so the state is
// quantized), with no state shared with any other controller.
func privateTwin(cfg Config) Config {
	cfg.MemoQuantum = cfg.tableQuantum()
	cfg.TableQuantum, cfg.DecisionTable, cfg.SharedCache = 0, nil, nil
	if cfg.SolveMemoSize == 0 {
		cfg.SolveMemoSize = 1
	}
	return cfg
}
