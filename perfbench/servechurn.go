package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/tracegen"
	"repro/internal/units"
)

// serve-churn shape. The table runs at soda-server's default session cap;
// departed viewers idle past a TTL far shorter than the production default
// but far longer than the gap between an active viewer's decides (a few
// tens of milliseconds at these active counts), so every new viewer is
// admitted by reclaiming an expired session and no active one is reclaimed.
const (
	churnSessions  = httpseg.DefaultMaxSessions
	churnTTL       = 250 * time.Millisecond
	churnActive    = 1024 // active viewers per worker
	churnMeanLife  = 20   // mean decides per viewer, geometric
	churnTracePool = 256
	churnSetupReps = 3
	churnWindow    = int64(500 * time.Millisecond)
	churnFirstWin  = int64(2 * time.Second) // enough first decides for a p99
)

// churnOptions are soda-server's options at its default cap, with the short
// TTL and the per-session memo disabled (the fleet-scale setting
// DecideOptions documents; with the 20 KB memo a full table would hold
// 1.3 GB).
func churnOptions() httpseg.DecideOptions {
	return httpseg.DecideOptions{
		CacheEntries:       1 << 16,
		TableQuantum:       tableQuantum,
		MaxSessions:        churnSessions,
		SessionTTL:         churnTTL,
		SessionMemoEntries: -1,
	}
}

type churnState struct {
	st      *stack
	workers []*churnWorker
	trMS    float64
}

// churnWorker is one load-generating worker's population of active viewers.
type churnWorker struct {
	w       int
	pool    [][]units.Mbps
	rng     *rand.Rand
	active  []viewer
	left    []int  // decides before the viewer leaves
	fresh   []bool // the viewer has not decided yet
	arrived int64
}

// arrive replaces active viewer j with a new one.
func (cw *churnWorker) arrive(j int) {
	key := "v" + strconv.Itoa(cw.w) + "-" + strconv.FormatInt(cw.arrived, 10)
	cw.active[j] = newViewer(key, cw.pool[cw.rng.Intn(len(cw.pool))], cw.rng.Intn(120))
	cw.left[j], cw.fresh[j] = geometric(cw.rng), true
	cw.arrived++
}

// step issues active viewer j's next decide and advances its player.
func (cw *churnWorker) step(svc *httpseg.DecideService, j int) (httpseg.DecideResult, served, bool) {
	v := &cw.active[j]
	thr := v.nextThroughput()
	req := httpseg.DecideRequest{Session: v.key, Buffer: units.Seconds(v.buffer),
		Throughput: units.Mbps(thr), BufferCap: bufferCap, Segment: -1}
	res := svc.Decide(&req)
	ok := res.Status == httpseg.StatusOK && res.Rung < serveLadder().Len() &&
		(res.Rung >= 0 || res.WaitSeconds > 0)
	in := served{buffer: v.buffer, throughput: thr, prev: v.prev, segment: v.segment, rung: res.Rung}
	if ok {
		v.apply(serveLadder(), res.Rung, res.WaitSeconds, thr)
	}
	return res, in, ok
}

// setupChurn fills the table to its cap: each worker's active viewers first,
// then prefill sessions until the table is full. After every session has
// idled past the TTL, each active viewer decides once more, so the active
// sessions are the most recently used and the timed phase starts in steady
// state, reclaiming the expired prefill sessions for new viewers.
func setupChurn(p params) (*churnState, error) {
	pool, trMS, err := tracePool(tracegen.Puffer(), churnTracePool, units.Seconds(120), p.seed)
	if err != nil {
		return nil, err
	}
	st, err := newStack(serveLadder(), churnOptions())
	if err != nil {
		return nil, err
	}
	s := &churnState{st: st, trMS: trMS}
	for w := 0; w < p.procs; w++ {
		cw := &churnWorker{w: w, pool: pool, rng: rand.New(rand.NewSource(p.seed*1000 + int64(w))),
			active: make([]viewer, churnActive), left: make([]int, churnActive), fresh: make([]bool, churnActive)}
		for j := range cw.active {
			cw.arrive(j)
		}
		s.workers = append(s.workers, cw)
	}
	err = s.eachWorker(func(cw *churnWorker) error {
		for j := range cw.active {
			if _, _, ok := cw.step(st.svc, j); !ok {
				return fmt.Errorf("active viewer %s refused", cw.active[j].key)
			}
			cw.fresh[j] = false
		}
		for i := 0; ; i++ {
			if i%256 == 0 && st.svc.SessionStats().Active >= churnSessions {
				return nil
			}
			req := httpseg.DecideRequest{Session: "p" + strconv.Itoa(cw.w) + "-" + strconv.Itoa(i),
				Throughput: pool[i%len(pool)][0], BufferCap: bufferCap, Segment: -1}
			if res := st.svc.Decide(&req); res.Status != httpseg.StatusOK &&
				res.Status != httpseg.StatusRejectedCapacity {
				return fmt.Errorf("prefill decide: status %d", res.Status)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	time.Sleep(churnTTL)
	err = s.eachWorker(func(cw *churnWorker) error {
		for j := range cw.active {
			if _, _, ok := cw.step(st.svc, j); !ok {
				return fmt.Errorf("active viewer %s refused", cw.active[j].key)
			}
			cw.left[j] = geometric(cw.rng)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// eachWorker runs fn for every worker in its own goroutine and waits.
func (s *churnState) eachWorker(fn func(cw *churnWorker) error) error {
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for i, cw := range s.workers {
		wg.Add(1)
		go func(i int, cw *churnWorker) {
			defer wg.Done()
			errs[i] = fn(cw)
		}(i, cw)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// churnLog is what one worker records.
type churnLog struct {
	lat, first  []int64 // every Decide call; first decides only (ns)
	at, firstAt []int64 // when each lat and first sample's call returned
	gap         []int64 // return of one Decide call to the next call (ns)
	sample      []served
	ok, failed  int64
	created     int64 // viewers whose first decide was served
	bad         string
	// windows maps a created session's id to the recorder-clock interval of
	// its first decide (traced run only).
	windows map[int32][2]int64
}

// geometric draws a viewer lifetime in decides, mean churnMeanLife.
func geometric(rng *rand.Rand) int {
	u := 1 - rng.Float64()
	return 1 + int(math.Log(u)/math.Log(1-1.0/churnMeanLife))
}

func runServeChurn(p params) (*result, error) {
	r := &result{}
	ladder := serveLadder()
	var heapBase uint64
	setupS, s, err := medianSetup(churnSetupReps, func() (*churnState, error) { return setupChurn(p) },
		func(*churnState) {}, &heapBase)
	if err != nil {
		return nil, err
	}
	heapPerSession := float64(int64(liveHeap())-int64(heapBase)) / churnSessions

	svc, rec := s.st.svc, s.st.flight
	sessBefore := svc.SessionStats()
	solveBefore := solverCounts(s.st.col)
	incBefore := incidentCounts(s.st.watchdog)
	var spans *spanSampler
	if p.traced {
		spans = newSpanSampler(rec)
	}
	rtBefore := readRuntime()
	logs := make([]churnLog, p.procs)
	start := nowNS()
	end := start + int64(p.seconds)*1e9
	done := make(chan error, 1)
	go func() {
		done <- s.eachWorker(func(cw *churnWorker) error {
			lg := &logs[cw.w]
			lg.lat = make([]int64, 0, 50000*p.seconds/p.procs)
			lg.at = make([]int64, 0, 50000*p.seconds/p.procs)
			lg.first = make([]int64, 0, 5000*p.seconds/p.procs)
			lg.firstAt = make([]int64, 0, 5000*p.seconds/p.procs)
			lg.gap = make([]int64, 0, 50000*p.seconds/p.procs)
			if p.traced {
				lg.windows = map[int32][2]int64{}
			}
			prevEnd := int64(-1)
			for n := 0; ; n++ {
				j := n % churnActive
				if j == 0 && nowNS() >= end {
					return nil
				}
				fresh := cw.fresh[j]
				var r0 int64
				if lg.windows != nil && fresh {
					r0 = rec.Now()
				}
				t0 := nowNS()
				res, in, ok := cw.step(svc, j)
				t1 := nowNS()
				if prevEnd >= 0 {
					lg.gap = append(lg.gap, t0-prevEnd)
				}
				prevEnd = t1
				if !ok {
					lg.failed++
					lg.lat = append(lg.lat, failedNS)
					lg.at = append(lg.at, t1)
					if fresh {
						lg.first = append(lg.first, failedNS)
						lg.firstAt = append(lg.firstAt, t1)
					}
					if lg.bad == "" {
						lg.bad = fmt.Sprintf("viewer %s: status %d rung %d", cw.active[j].key, res.Status, res.Rung)
					}
					cw.arrive(j) // a refused viewer leaves; a new one takes its place
					continue
				}
				lg.ok++
				lg.lat = append(lg.lat, t1-t0)
				lg.at = append(lg.at, t1)
				if fresh {
					lg.first = append(lg.first, t1-t0)
					lg.firstAt = append(lg.firstAt, t1)
					lg.created++
					if lg.windows != nil {
						lg.windows[int32(res.SessionID)] = [2]int64{r0, rec.Now()}
					}
					cw.fresh[j] = false
				}
				if n%replaySample == 0 {
					lg.sample = append(lg.sample, in)
				}
				if cw.left[j]--; cw.left[j] == 0 {
					cw.arrive(j)
				}
			}
		})
	}()
	var runErr error
	if spans != nil {
	sampling:
		for {
			select {
			case runErr = <-done:
				break sampling
			case <-time.After(spanSampleEvery):
				spans.sample()
			}
		}
		spans.sample()
	} else {
		runErr = <-done
	}
	if runErr != nil {
		return nil, runErr
	}
	wall := float64(nowNS()-start) / 1e9
	rtAfter := readRuntime()

	var ok, failed, viewers int64 // viewers: first decides served
	var lat, at, first, firstAt, gap []int64
	var sample []served
	bad := ""
	firstWindows := map[int32][2]int64{}
	for i := range logs {
		lg := &logs[i]
		ok += lg.ok
		failed += lg.failed
		viewers += lg.created
		lat = append(lat, lg.lat...)
		at = append(at, lg.at...)
		first = append(first, lg.first...)
		firstAt = append(firstAt, lg.firstAt...)
		gap = append(gap, lg.gap...)
		sample = append(sample, lg.sample...)
		if bad == "" {
			bad = lg.bad
		}
		for k, v := range lg.windows {
			firstWindows[k] = v
		}
	}
	r.attempted, r.failed = ok+failed, failed
	stop := start + int64(wall*1e9)
	rate := fastRate(windows(at, lat, start, stop, churnWindow, okPerSecond))
	p50 := fastLatency(windows(at, lat, start, stop, churnWindow, p50Window))
	p99s := windows(at, lat, start, stop, churnWindow, p99Window)
	firstP50 := fastLatency(windows(firstAt, first, start, stop, churnFirstWin, p50Window))
	firstP99s := windows(firstAt, first, start, stop, churnFirstWin, p99Window)
	latS, firstS := summarize(lat), summarize(first)
	r.add(metric{name: "setup_s", value: setupS, unit: "s", n: churnSetupReps})
	r.add(metric{name: "decisions_per_s", value: rate, unit: "1/s"})
	r.layer(metric{name: "decide_p50_ms", value: p50 / 1e6, unit: "ms", n: latS.n})
	r.layer(metric{name: "decide_p99_ms", value: fastLatency(p99s) / 1e6, unit: "ms", n: latS.n})
	r.expect("decide_p99_ms-support", !math.IsNaN(fastLatency(p99s)),
		"%d half-second windows, at least one with ten samples beyond its p99", len(p99s))
	r.add(metric{name: "first_decide_p50_us", value: firstP50 / 1e3, unit: "us", n: firstS.n})
	r.layer(metric{name: "first_decide_p99_us", value: fastLatency(firstP99s) / 1e3, unit: "us", n: firstS.n})
	r.expect("first_decide_p99_us-support", !math.IsNaN(fastLatency(firstP99s)),
		"%d two-second windows, at least one with ten first decides beyond its p99", len(firstP99s))
	r.add(metric{name: "heap_bytes_per_session", value: heapPerSession, unit: "B"})

	sessAfter := svc.SessionStats()
	r.expect("decides-ok", failed == 0, "%d of %d decides refused or out of range %s", failed, r.attempted, bad)
	mism, firstBad := referenceMismatches(ladder, tableQuantum, sample)
	r.expect("reference-replay", mism == 0 && len(sample) > 0,
		"%d sampled decisions, %d differ from the reference controller %s", len(sample), mism, firstBad)
	created := sessAfter.Created - sessBefore.Created
	reclaimed := sessAfter.EvictedIdle - sessBefore.EvictedIdle
	r.expect("admitted-by-reclaim", created == uint64(viewers) && reclaimed == created &&
		sessAfter.Active == churnSessions,
		"%d new viewers, %d sessions created, %d reclaimed, %d live at the end", viewers, created, reclaimed, sessAfter.Active)

	if p.traced {
		isCreate := func(sp flightrec.Span) bool {
			w, ok := firstWindows[sp.Session]
			return ok && sp.Start >= w[0] && sp.Start <= w[1]
		}
		r.stageLayers(spans, isCreate)
		r.layer(metric{name: "sessiontable.created", unit: "count", value: float64(created)})
		r.layer(metric{name: "sessiontable.evicted_idle", unit: "count", value: float64(reclaimed)})
		r.layer(metric{name: "sessiontable.rejected", unit: "count",
			value: float64(sessAfter.RejectedCapacity + sessAfter.RejectedDraining -
				sessBefore.RejectedCapacity - sessBefore.RejectedDraining)})
		r.solverLayers(solverCounts(s.st.col).Delta(solveBefore))
		r.incidentLayers(incBefore, incidentCounts(s.st.watchdog), int(viewers))
		r.runtimeLayers(rtBefore, rtAfter, ok+failed)
		cfg := serviceConfig(churnOptions())
		compile, err := compileSeconds(cfg, ladder)
		if err != nil {
			return nil, err
		}
		r.layer(metric{name: "core.table_compile_s", unit: "s", value: compile})
		r.layer(metric{name: "core.init_prewarm_us", unit: "us", value: initPrewarmUS(cfg, ladder, 2000), n: 2000})
		r.layer(metric{name: "tracegen.session_ms", unit: "ms", value: s.trMS, n: churnTracePool})

		gapS := summarize(gap)
		r.ledgerWhat = "closed-loop time per decide per worker"
		r.ledgerE2EUS = wall / float64(ok+failed) * float64(p.procs) * 1e6
		r.ledger = append([]ledgerRow{
			{"client player model", gapS.mean / 1e3, "return of one Decide to the next call"},
			{"Decide outside spans", (latS.mean - spans.meanNS(flightrec.StageRespond)) / 1e3,
				"Decide call minus respond span"},
		}, stageLedger(spans)...)
		r.layer(metric{name: "ledger.unaccounted_share", unit: "ratio", value: r.unaccounted()})
	}
	return r, nil
}
