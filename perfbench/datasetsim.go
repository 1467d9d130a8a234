package main

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// dataset-sim shape: the Figure 10 mix at a size one round of which takes a
// fraction of a second, so a run repeats it many times.
const (
	dsPufferSessions = 400 // split into four variance quartiles of 100
	dsMobileSessions = 100 // each of 5G and 4G
	dsSessionSeconds = 600
	dsCacheEntries   = 1 << 16 // Figure 10's shared solve cache size
	dsCheckPerBucket = 2
	dsSetupReps      = 9
)

type dsBucket struct {
	name   string
	traces []*trace.Trace
	ladder video.Ladder
}

type dsState struct {
	buckets []dsBucket
	trMS    float64
}

// setupDataset synthesizes the Figure 10 buckets: Puffer sessions split by
// variance quartile on the YouTube-4K ladder, 5G and 4G on the mobile ladder.
func setupDataset(p params) (*dsState, error) {
	start := nowNS()
	puffer, err := tracegen.Generate(tracegen.Puffer(), dsPufferSessions, dsSessionSeconds, uint64(p.seed))
	if err != nil {
		return nil, err
	}
	s := &dsState{}
	for i, q := range puffer.QuartilesByRSD() {
		s.buckets = append(s.buckets, dsBucket{fmt.Sprintf("puffer-q%d", i+1), q, video.YouTube4K()})
	}
	for _, spec := range []struct {
		name    string
		profile tracegen.Profile
	}{{"5g", tracegen.FiveG()}, {"4g", tracegen.FourG()}} {
		ds, err := tracegen.Generate(spec.profile, dsMobileSessions, dsSessionSeconds, uint64(p.seed)+9)
		if err != nil {
			return nil, err
		}
		s.buckets = append(s.buckets, dsBucket{spec.name, ds.Sessions, video.Mobile()})
	}
	s.trMS = float64(nowNS()-start) / 1e6 / float64(dsPufferSessions+2*dsMobileSessions)
	return s, nil
}

func (s *dsState) sessions() int {
	n := 0
	for _, b := range s.buckets {
		n += len(b.traces)
	}
	return n
}

// timedCtrl times every Decide of the controller it wraps.
type timedCtrl struct {
	inner *core.Controller
	pred  *timedPred // nil in the untraced run
	lat   []int64    // every Decide, ns
	first int64      // the session's first Decide, ns
	fresh bool
}

func (c *timedCtrl) Name() string { return c.inner.Name() }

func (c *timedCtrl) Reset() {
	c.inner.Reset()
	c.fresh = true
}

func (c *timedCtrl) Decide(ctx *abr.Context) abr.Decision {
	t0 := nowNS()
	d := c.inner.Decide(ctx)
	dt := nowNS() - t0
	if c.fresh {
		c.first, c.fresh = dt, false
	}
	c.lat = append(c.lat, dt)
	return d
}

// timedPred times the predictor's Observe and Predict calls (traced run).
type timedPred struct {
	inner                 predictor.Predictor
	observeNS, predictNS  int64
	observes, predictions int64
}

func (p *timedPred) Observe(s predictor.Sample) {
	t0 := nowNS()
	p.inner.Observe(s)
	p.observeNS += nowNS() - t0
	p.observes++
}

func (p *timedPred) Predict(now, horizon units.Seconds) units.Mbps {
	t0 := nowNS()
	w := p.inner.Predict(now, horizon)
	p.predictNS += nowNS() - t0
	p.predictions++
	return w
}

func (p *timedPred) Reset() { p.inner.Reset() }

// evalPredictor is the predictor of the paper's simulations (Figure 10).
func evalPredictor() predictor.Predictor { return predictor.NewEMA(units.Seconds(4)) }

// dsTally accumulates what the sessions of a run report.
type dsTally struct {
	mu                    sync.Mutex
	lat, first            []int64
	stats                 core.SolveStats
	observeNS, predictNS  int64
	observes, predictions int64
	sessions              int64
}

func (t *dsTally) add(c *timedCtrl) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, c.lat...)
	t.first = append(t.first, c.first)
	t.stats = addStats(t.stats, c.inner.SolveStats())
	if c.pred != nil {
		t.observeNS += c.pred.observeNS
		t.predictNS += c.pred.predictNS
		t.observes += c.pred.observes
		t.predictions += c.pred.predictions
	}
	t.sessions++
}

// dsTiming holds, per bucket, the decisions of every RunMany call and the
// rate of each call.
type dsTiming struct {
	decisions []int64
	rates     [][]float64
}

// rate is the fast side of the buckets' rates, combined: each bucket's
// decisions at the upper decile of its calls' rates (see fastRate), over
// the time that would take. A call of one bucket runs for tens of
// milliseconds, short enough that CPU steal misses some of them, where it
// hit every quarter-second round.
func (t *dsTiming) rate() float64 {
	var decisions, seconds float64
	for b, n := range t.decisions {
		decisions += float64(n)
		seconds += float64(n) / fastRate(t.rates[b])
	}
	return decisions / seconds
}

// round simulates every bucket once, each with a fresh shared solve cache,
// records each bucket's decisions and rate in timing, and returns the
// results of each bucket's sessions.
func (s *dsState) round(tally *dsTally, timing *dsTiming, traced bool, watchdog *flightrec.Watchdog) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(s.buckets))
	if timing.rates == nil {
		timing.decisions = make([]int64, len(s.buckets))
		timing.rates = make([][]float64, len(s.buckets))
	}
	for i, b := range s.buckets {
		cache := core.NewSolveCache(dsCacheEntries)
		ladder := b.ladder
		factory := func() (abr.Controller, predictor.Predictor) {
			cfg := core.DefaultConfig()
			cfg.SharedCache = cache
			c := &timedCtrl{inner: core.New(cfg, ladder), lat: make([]int64, 0, 400)}
			if !traced {
				return c, evalPredictor()
			}
			c.pred = &timedPred{inner: evalPredictor()}
			return c, c.pred
		}
		t0, n0 := nowNS(), len(tally.lat)
		res, err := sim.RunMany(b.traces, factory, sim.Config{
			Ladder:         ladder,
			BufferCap:      units.Seconds(bufferCap),
			SessionSeconds: dsSessionSeconds,
			OnResult:       func(_ int, c abr.Controller, _ sim.Result) { tally.add(c.(*timedCtrl)) },
			Watchdog:       watchdog,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		n := len(tally.lat) - n0
		timing.decisions[i] += int64(n)
		timing.rates[i] = append(timing.rates[i], float64(n)/(float64(nowNS()-t0)/1e9))
		out[i] = res
	}
	return out, nil
}

func runDatasetSim(p params) (*result, error) {
	r := &result{}
	var heapBase uint64
	setupS, s, err := medianSetup(dsSetupReps, func() (*dsState, error) { return setupDataset(p) },
		func(*dsState) {}, &heapBase)
	if err != nil {
		return nil, err
	}
	heapPerSession := float64(int64(liveHeap())-int64(heapBase)) / float64(s.sessions())

	// The watchdog observes only the traced run: Figure 10 runs without one.
	var watchdog *flightrec.Watchdog
	if p.traced {
		watchdog = flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	}
	tally := &dsTally{}
	rtBefore := readRuntime()
	start := nowNS()
	end := start + int64(p.seconds)*1e9
	var last [][]sim.Result
	var timing dsTiming
	var roundEnds []int // tally.lat length after each round
	rounds := 0
	for rounds == 0 || nowNS() < end {
		if last, err = s.round(tally, &timing, p.traced, watchdog); err != nil {
			return nil, err
		}
		roundEnds = append(roundEnds, len(tally.lat))
		rounds++
	}
	wallNS := nowNS() - start
	rtAfter := readRuntime()
	decisions := int64(len(tally.lat))
	r.attempted = decisions

	// Each round is a window: its decide p50 and p99, fast-side decile.
	var p50s, p99s []float64
	from := 0
	for _, to := range roundEnds {
		s := summarize(tally.lat[from:to])
		p50s, p99s = append(p50s, float64(s.p50)), append(p99s, float64(s.p99))
		from = to
	}
	lat := summarize(tally.lat)
	r.add(metric{name: "setup_s", value: setupS, unit: "s", n: dsSetupReps})
	r.add(metric{name: "decisions_per_s", value: timing.rate(), unit: "1/s", n: rounds * len(s.buckets)})
	r.layer(metric{name: "decide_p50_ms", value: fastLatency(p50s) / 1e6, unit: "ms", n: lat.n})
	r.layer(metric{name: "decide_p99_ms", value: fastLatency(p99s) / 1e6, unit: "ms", n: lat.n})
	r.latencyMetrics("first_decide_p50_us", "first_decide_p99_us", "us", 1e3, summarize(tally.first))
	r.add(metric{name: "heap_bytes_per_session", value: heapPerSession, unit: "B"})

	// Correctness: sampled sessions of the last round against a plain
	// sim.Run of the same trace — a fresh controller without the shared
	// cache and a fresh predictor.
	checked, bad, firstBad := 0, 0, ""
	for i, b := range s.buckets {
		for k := 0; k < dsCheckPerBucket; k++ {
			j := k * len(b.traces) / dsCheckPerBucket
			want, err := sim.Run(b.traces[j], sim.Config{
				Ladder:         b.ladder,
				BufferCap:      units.Seconds(bufferCap),
				SessionSeconds: dsSessionSeconds,
				Controller:     core.New(core.DefaultConfig(), b.ladder),
				Predictor:      evalPredictor(),
			})
			if err != nil {
				return nil, err
			}
			checked++
			got := last[i][j]
			if !reflect.DeepEqual(got.Metrics, want.Metrics) || !slices.Equal(got.Rungs, want.Rungs) {
				if bad == 0 {
					firstBad = fmt.Sprintf("%s session %d: QoE %.6f vs %.6f", b.name, j, got.Metrics.Score, want.Metrics.Score)
				}
				bad++
			}
		}
	}
	r.expect("plain-run-replay", bad == 0, "%d sampled sessions, %d differ from a plain sim.Run %s", checked, bad, firstBad)
	r.expect("sessions-complete", tally.sessions == int64(rounds*s.sessions()),
		"%d rounds of %d sessions, %d results", rounds, s.sessions(), tally.sessions)
	r.note("%d rounds of %d sessions", rounds, s.sessions())

	if p.traced {
		workers := float64(p.procs)
		busyNS := float64(wallNS) * workers
		var decideNS float64
		for _, v := range tally.lat {
			decideNS += float64(v)
		}
		predNS := float64(tally.observeNS + tally.predictNS)
		r.layer(metric{name: "core.decide_p50_us", unit: "us", value: float64(lat.p50) / 1e3, n: lat.n})
		r.layer(metric{name: "core.decide_p99_us", unit: "us", value: float64(lat.p99) / 1e3, n: lat.n})
		r.layer(metric{name: "core.decide_ns", unit: "ns", value: lat.mean, n: lat.n})
		r.solverLayers(tally.stats)
		r.layer(metric{name: "core.init_prewarm_us", unit: "us", n: 2000,
			value: initPrewarmUS(dsConfig(), video.YouTube4K(), 2000)})
		r.layer(metric{name: "predictor.observe_ns", unit: "ns", n: int(tally.observes),
			value: float64(tally.observeNS) / float64(max(tally.observes, 1))})
		r.layer(metric{name: "predictor.predict_ns", unit: "ns", n: int(tally.predictions),
			value: float64(tally.predictNS) / float64(max(tally.predictions, 1))})
		r.layer(metric{name: "sim.run_self_share", unit: "ratio", value: (busyNS - decideNS - predNS) / busyNS,
			base: "worker time: wall time x workers"})
		r.layer(metric{name: "sim.decisions", unit: "count", value: float64(decisions)})
		r.layer(metric{name: "tracegen.session_ms", unit: "ms", value: s.trMS, n: s.sessions()})
		var none [3]uint64
		r.incidentLayers(none, incidentCounts(watchdog), int(tally.sessions))
		r.runtimeLayers(rtBefore, rtAfter, decisions)
		r.ledgerWhat = "worker time per decision"
		r.ledgerE2EUS = busyNS / float64(decisions) / 1e3
		r.ledger = []ledgerRow{
			{"core decide", decideNS / float64(decisions) / 1e3, "Controller decorator"},
			{"predictor", predNS / float64(decisions) / 1e3, "Predictor decorator"},
			{"sim.Run self", (busyNS - decideNS - predNS) / float64(decisions) / 1e3,
				"remainder: trace integration, player model, QoE tally"},
		}
	}
	return r, nil
}

// dsConfig is the controller configuration of the SODA arm of Figure 10,
// with a shared cache of its own.
func dsConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SharedCache = core.NewSolveCache(dsCacheEntries)
	return cfg
}
