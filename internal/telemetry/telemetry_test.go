package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("soda_things_total", "things", None)
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %g, want 3.5", got)
	}
	g := reg.Gauge("soda_level_seconds", "level", USeconds)
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %g, want 2.5", got)
	}
	// Get-or-create: same name returns the same instrument.
	if reg.Counter("soda_things_total", "things", None) != c {
		t.Fatal("re-registering the same counter returned a new instrument")
	}
}

func TestNegativeCounterAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter Add did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("soda_x_total", "", None).Add(-1)
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soda_h_seconds", "h", USeconds, []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %g, want 106", got)
	}
	snaps := reg.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	// Cumulative: ≤1 → 2 (0.5 and 1), ≤2 → 3, ≤4 → 4; +Inf carries 5 via Count.
	wantCum := []uint64{2, 3, 4}
	for i, b := range snaps[0].Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%g count = %d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	if snaps[0].Count != 5 {
		t.Errorf("snapshot count = %d, want 5", snaps[0].Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soda_q_seconds", "q", USeconds, []float64{0.001, 0.01, 0.1, 1})

	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}

	// 90 observations in the ≤0.001 bucket, 9 in ≤0.01, 1 in ≤0.1.
	for i := 0; i < 90; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.005)
	}
	h.Observe(0.05)

	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 0.001}, // rank 50 of 100 → first bucket
		{0.90, 0.001}, // rank 90, exactly the first bucket's cumulative count
		{0.99, 0.01},  // rank 99 → second bucket
		{0.999, 0.1},  // rank 100 → third bucket
		{1, 0.1},      // max observed bucket
		{0, 0},        // out of range
		{1.5, 0},      // out of range
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}

	// +Inf observations saturate at the largest finite bound.
	h2 := reg.Histogram("soda_q2_seconds", "q2", USeconds, []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow-only Quantile(0.99) = %g, want 2 (largest finite bound)", got)
	}
}

// TestHistogramQuantileEstimatorTable pins the documented estimator contract
// — conservative bucket-upper-bound, never interpolating — on the degenerate
// layouts the doc comment calls out: empty histograms, a single-bucket
// layout, and observations that land only in the implicit +Inf bucket.
func TestHistogramQuantileEstimatorTable(t *testing.T) {
	reg := NewRegistry()
	cases := []struct {
		name    string
		buckets []float64
		obs     []float64
		q       float64
		want    float64
	}{
		{"empty histogram", []float64{1, 2}, nil, 0.5, 0},
		{"empty histogram p99", []float64{1, 2}, nil, 0.99, 0},
		{"single bucket, value inside", []float64{10}, []float64{0.25}, 0.5, 10},
		{"single bucket, p100", []float64{10}, []float64{0.25, 9.9}, 1, 10},
		{"single bucket, overflow only", []float64{10}, []float64{11}, 0.5, 10},
		{"overflow bucket only", []float64{1, 2, 4}, []float64{100, 200}, 0.99, 4},
		{"mixed finite and overflow", []float64{1, 2}, []float64{0.5, 0.5, 0.5, 99}, 0.75, 1},
		{"mixed, quantile in overflow", []float64{1, 2}, []float64{0.5, 99}, 1, 2},
	}
	for i, tc := range cases {
		h := reg.Histogram(fmt.Sprintf("soda_qt%d_seconds", i), tc.name, USeconds, tc.buckets)
		for _, v := range tc.obs {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestRegistryValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Registry)
	}{
		{"counter without _total", func(r *Registry) { r.Counter("soda_things", "", None) }},
		{"unit counter without suffix", func(r *Registry) { r.Counter("soda_stall_total", "", USeconds) }},
		{"unit gauge without suffix", func(r *Registry) { r.Gauge("soda_buffer", "", USeconds) }},
		{"bad name", func(r *Registry) { r.Gauge("9bad-name", "", None) }},
		{"bad label key", func(r *Registry) { r.Gauge("soda_g", "", None, Label{Key: "bad-key", Value: "v"}) }},
		{"empty buckets", func(r *Registry) { r.Histogram("soda_h_seconds", "", USeconds, nil) }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("soda_h_seconds", "", USeconds, []float64{2, 1}) }},
		{"kind clash", func(r *Registry) {
			r.Counter("soda_x_total", "", None)
			r.Gauge("soda_x_total", "", None)
		}},
		{"unit clash", func(r *Registry) {
			r.Gauge("soda_y_seconds", "", USeconds)
			r.Gauge("soda_y_seconds", "", None)
		}},
		{"bucket clash", func(r *Registry) {
			r.Histogram("soda_z_seconds", "", USeconds, []float64{1, 2})
			r.Histogram("soda_z_seconds", "", USeconds, []float64{1, 3})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestCheckName(t *testing.T) {
	cases := []struct {
		name    string
		counter bool
		unit    Unit
		ok      bool
	}{
		{"soda_decisions_total", true, None, true},
		{"soda_rebuffer_seconds_total", true, USeconds, true},
		{"soda_buffer_level_seconds", false, USeconds, true},
		{"soda_rate_mbps", false, UMbps, true},
		{"soda_decisions", true, None, false},          // counter lacks _total
		{"soda_rebuffer_total", true, USeconds, false}, // unit suffix missing
		{"soda_buffer_level", false, USeconds, false},  // unit suffix missing
		{"soda_total_seconds", true, USeconds, false},  // suffixes in wrong order
		{"9leading_digit_total", true, None, false},    // bad identifier
		{"has-dash_total", true, None, false},          // bad identifier
	}
	for _, tc := range cases {
		err := CheckName(tc.name, tc.counter, tc.unit)
		if (err == nil) != tc.ok {
			t.Errorf("CheckName(%q, counter=%v, unit=%q) err=%v, want ok=%v",
				tc.name, tc.counter, tc.unit, err, tc.ok)
		}
	}
}

func TestConcurrentUpdatesAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("soda_n_total", "", None)
	h := reg.Histogram("soda_v_seconds", "", USeconds, []float64{1, 10})
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(0.5)
				reg.Snapshot() // racing snapshots must stay consistent
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %g, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	c := NewCollector(nil, 64)
	rec := c.StartSession(0)
	for i := 0; i < 40; i++ {
		ev := DecisionEvent{
			Segment: int32(i), Rung: int16(i % 5), PrevRung: int16((i + 4) % 5),
			Buffer:     units.Seconds(float64(i%20) + 0.5),
			Throughput: units.Mbps(8),
			Bitrate:    units.Mbps(4),
			Solves:     1, Nodes: 12,
		}
		if rec.SampleLatency() {
			ev.Timed = true
			ev.SolveSeconds = 1e-6
		}
		rec.RecordDecision(&ev)
	}
	rec.RecordDecision(&DecisionEvent{Segment: 40, Rung: -1, PrevRung: 4, Buffer: units.Seconds(0.1), WaitSeconds: units.Seconds(0.5)})
	rec.Finish(&core.SolveStats{Solves: 41, Nodes: 500, MemoLookups: 41, MemoHits: 3, SharedLookups: 41, SharedHits: 7},
		40, units.Seconds(1.25))

	var buf bytes.Buffer
	if err := c.Registry.WriteExposition(&buf); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	text := buf.String()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v\n%s", err, text)
	}
	want := map[string]string{
		"soda_decisions_total":         "counter",
		"soda_wait_decisions_total":    "counter",
		"soda_sessions_total":          "counter",
		"soda_segments_total":          "counter",
		"soda_rebuffer_seconds_total":  "counter",
		"soda_solver_solves_total":     "counter",
		"soda_solver_nodes_total":      "counter",
		"soda_shared_cache_hits_total": "counter",
		"soda_buffer_level_seconds":    "histogram",
		"soda_decided_bitrate_mbps":    "histogram",
		"soda_decide_latency_seconds":  "histogram",
	}
	for name, typ := range want {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("exposition missing family %s", name)
			continue
		}
		if fam.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, fam.Type, typ)
		}
		if fam.Samples == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	// Spot-check values survived the trip through the recorder's batching.
	if got := c.Decisions.Value(); got != 41 {
		t.Errorf("decisions = %g, want 41", got)
	}
	if got := c.Waits.Value(); got != 1 {
		t.Errorf("waits = %g, want 1", got)
	}
	if got := c.BufferLevel.Count(); got != 41 {
		t.Errorf("buffer observations = %d, want 41", got)
	}
	if got := c.Bitrate.Count(); got != 40 {
		t.Errorf("bitrate observations = %d, want 40", got)
	}
	if got := c.Nodes.Value(); got != 500 {
		t.Errorf("solver nodes = %g, want 500", got)
	}
	if got := c.Ring.Total(); got != 41 {
		t.Errorf("ring total = %d, want 41", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := []struct{ name, payload string }{
		{"duplicate family", "# TYPE a counter\n# TYPE a counter\n"},
		{"unknown type", "# TYPE a widget\n"},
		{"undeclared sample", "a_total 1\n"},
		{"bad value", "# TYPE a counter\na bogus\n"},
		{"bad name", "# TYPE a counter\n9a 1\n"},
		{"malformed TYPE line", "# TYPE a\n"},
		{"TYPE with extra tokens", "# TYPE a counter extra\n"},
		{"unbalanced braces", "# TYPE a counter\na{x=\"1\" 1\n"},
		{"sample missing value", "# TYPE a counter\na\n"},
		{"sample with extra fields", "# TYPE a counter\na 1 2 3\n"},
		{"undeclared histogram series", "# TYPE a counter\nb_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseExposition(strings.NewReader(tc.payload)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", tc.name, tc.payload)
		}
	}
}

func TestRingWrapAndSnapshot(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(DecisionEvent{Segment: int32(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if want := int32(6 + i); ev.Segment != want {
			t.Errorf("snap[%d].Segment = %d, want %d (oldest first)", i, ev.Segment, want)
		}
	}
}

func TestRingJSONL(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Append(DecisionEvent{Segment: int32(i), Rung: int16(i % 3), Buffer: units.Seconds(i)})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 3, AllSessions); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var segs []int32
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line does not parse as DecisionEvent: %v", err)
		}
		segs = append(segs, ev.Segment)
	}
	if len(segs) != 3 || segs[0] != 2 || segs[2] != 4 {
		t.Fatalf("limited JSONL segments = %v, want [2 3 4]", segs)
	}
}

func TestRingJSONLSessionFilter(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 12; i++ {
		r.Append(DecisionEvent{Session: int32(i % 3), Segment: int32(i)})
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 0, 1); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var segs []int32
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line does not parse: %v", err)
		}
		if ev.Session != 1 {
			t.Fatalf("filtered output leaked session %d", ev.Session)
		}
		segs = append(segs, ev.Segment)
	}
	if len(segs) != 4 || segs[0] != 1 || segs[3] != 10 {
		t.Fatalf("session-1 segments = %v, want [1 4 7 10]", segs)
	}
	// The limit applies after the session filter: newest K of that session.
	buf.Reset()
	if err := r.WriteJSONL(&buf, 2, 1); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("limit-after-filter produced %d lines, want 2", len(lines))
	}
	var first DecisionEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Segment != 7 {
		t.Fatalf("newest-2-of-session-1 starts at segment %d (err %v), want 7", first.Segment, err)
	}
}

// errAfterWriter fails every write after the first n bytes — the shape of a
// client hanging up mid-stream.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("client hung up")
	}
	w.written += len(p)
	return len(p), nil
}

func TestRingJSONLClientHangup(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 8; i++ {
		r.Append(DecisionEvent{Segment: int32(i)})
	}
	err := r.WriteJSONL(&errAfterWriter{n: 50}, 0, AllSessions)
	if err == nil {
		t.Fatal("WriteJSONL swallowed the write error")
	}
}

// TestRecorderMatchesDirect proves the SessionRecorder's batched flush path
// is observationally identical to calling Collector.RecordDecision directly.
func TestRecorderMatchesDirect(t *testing.T) {
	events := make([]DecisionEvent, 700) // crosses the flush threshold twice
	for i := range events {
		ev := DecisionEvent{
			Segment: int32(i), Rung: int16(i % 6), PrevRung: int16((i + 5) % 6),
			Buffer:     units.Seconds(math.Mod(float64(i)*0.37, 22)),
			Throughput: units.Mbps(3 + float64(i%9)),
			Bitrate:    units.Mbps(0.5 * float64(1+i%6)),
		}
		if i%7 == 0 {
			ev.Rung = -1
			ev.Bitrate = 0
			ev.WaitSeconds = 0.5
		}
		if i%16 == 0 {
			ev.Timed = true
			ev.SolveSeconds = units.Seconds(1e-6 * float64(1+i%40))
		}
		events[i] = ev
	}

	direct := NewCollector(nil, 2048)
	for _, ev := range events {
		direct.RecordDecision(ev)
	}
	direct.RecordSolverStats(&core.SolveStats{Solves: 700, Nodes: 9000})
	direct.RecordSession(600, units.Seconds(2.5))

	batched := NewCollector(nil, 2048)
	rec := batched.StartSession(0)
	for _, ev := range events {
		rec.RecordDecision(&ev)
	}
	rec.Finish(&core.SolveStats{Solves: 700, Nodes: 9000}, 600, units.Seconds(2.5))

	a, b := direct.Snapshot(), batched.Snapshot()
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for i := range a.Metrics {
		ma, mb := a.Metrics[i], b.Metrics[i]
		// Histogram sums accumulate in a different order on the batched path,
		// so compare them within float tolerance and everything else exactly.
		sa, sb := ma.Sum, mb.Sum
		ma.Sum, mb.Sum = 0, 0
		ja, _ := json.Marshal(ma)
		jb, _ := json.Marshal(mb)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("metric %s diverged:\ndirect:  %s\nbatched: %s", ma.Name, ja, jb)
		}
		if math.Abs(sa-sb) > 1e-9*math.Max(1, math.Abs(sa)) {
			t.Fatalf("metric %s sum diverged beyond float tolerance: %g vs %g", ma.Name, sa, sb)
		}
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("ring lengths differ: %d vs %d", len(a.Decisions), len(b.Decisions))
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("ring event %d differs: %+v vs %+v", i, a.Decisions[i], b.Decisions[i])
		}
	}
}

func TestNilCollectorAndRecorderAreSafe(t *testing.T) {
	var c *Collector
	c.RecordDecision(DecisionEvent{})
	c.RecordSolverStats(&core.SolveStats{Solves: 1})
	c.RecordSession(10, units.Seconds(1))
	rec := c.StartSession(3)
	if rec != nil {
		t.Fatal("nil collector returned a non-nil recorder")
	}
	if rec.SampleLatency() {
		t.Fatal("nil recorder wants latency samples")
	}
	rec.RecordDecision(&DecisionEvent{})
	rec.Finish(&core.SolveStats{}, 0, units.Seconds(0))
	if snap := c.Snapshot(); len(snap.Metrics) != 0 || len(snap.Decisions) != 0 {
		t.Fatal("nil collector snapshot not empty")
	}
}

// TestMetricNamesCarryUnitSuffix is the typed-wire-schemas check: every
// metric registered by the standard collector whose values originate from a
// units.* scalar must declare that unit and carry the matching name suffix.
// CheckName enforces the suffix at registration; this test pins the
// declarations themselves so a metric can't silently drop its unit.
func TestMetricNamesCarryUnitSuffix(t *testing.T) {
	c := NewCollector(nil, 16)
	wantUnits := map[string]Unit{
		// units.Seconds sources
		"soda_buffer_level_seconds":   USeconds,
		"soda_decide_latency_seconds": USeconds,
		"soda_rebuffer_seconds_total": USeconds,
		// units.Mbps sources
		"soda_decided_bitrate_mbps": UMbps,
	}
	seen := map[string]bool{}
	for _, snap := range c.Registry.Snapshot() {
		seen[snap.Name] = true
		if want, ok := wantUnits[snap.Name]; ok && Unit(snap.Unit) != want {
			t.Errorf("metric %s declares unit %q, want %q", snap.Name, snap.Unit, want)
		}
		if err := CheckName(snap.Name, snap.Kind == "counter", snap.Unit); err != nil {
			t.Errorf("registered metric violates the naming rule: %v", err)
		}
		// No unit-bearing token may hide in an undeclared metric's name.
		if snap.Unit == None {
			base := strings.TrimSuffix(snap.Name, "_total")
			for _, u := range []Unit{USeconds, UMinutes, UMbps, UMegabits} {
				if strings.HasSuffix(base, "_"+string(u)) {
					t.Errorf("metric %s ends in _%s but declares no unit", snap.Name, u)
				}
			}
		}
	}
	for name := range wantUnits {
		if !seen[name] {
			t.Errorf("expected collector metric %s not registered", name)
		}
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	c := NewCollector(nil, 16)
	c.RecordDecision(DecisionEvent{Segment: 1, Rung: 2, Buffer: units.Seconds(3), Bitrate: units.Mbps(4)})
	c.RecordSession(1, units.Seconds(0.5))
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := c.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot file does not parse: %v", err)
	}
	if len(snap.Decisions) != 1 || snap.Decisions[0].Segment != 1 {
		t.Fatalf("snapshot decisions = %+v, want the one recorded event", snap.Decisions)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("snapshot has no metrics")
	}
}

func TestMetricsAndDecisionsHandlers(t *testing.T) {
	c := NewCollector(nil, 16)
	c.RecordDecision(DecisionEvent{Segment: 0, Rung: 1, Buffer: units.Seconds(2), Bitrate: units.Mbps(1)})
	refreshed := false
	h := MetricsHandler(c.Registry, func() { refreshed = true })
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !refreshed {
		t.Fatal("onScrape hook did not run")
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := ParseExposition(rw.Body); err != nil {
		t.Fatalf("/metrics body does not parse: %v", err)
	}

	dh := DecisionsHandler(c.Ring)
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=1", nil))
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var ev DecisionEvent
	if err := json.Unmarshal(bytes.TrimSpace(rw.Body.Bytes()), &ev); err != nil {
		t.Fatalf("decision line does not parse: %v", err)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=-2", nil))
	if rw.Code != 400 {
		t.Fatalf("negative limit returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=abc", nil))
	if rw.Code != 400 {
		t.Fatalf("non-numeric limit returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=-3", nil))
	if rw.Code != 400 {
		t.Fatalf("negative session returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("non-numeric session returned %d, want 400", rw.Code)
	}
	// The filter path: only the requested session's events come back.
	c.RecordDecision(DecisionEvent{Session: 7, Segment: 9})
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=7", nil))
	var filtered DecisionEvent
	if err := json.Unmarshal(bytes.TrimSpace(rw.Body.Bytes()), &filtered); err != nil {
		t.Fatalf("filtered decision line does not parse: %v", err)
	}
	if filtered.Session != 7 || filtered.Segment != 9 {
		t.Fatalf("?session=7 returned %+v", filtered)
	}
}
