package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/sessiontable"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// serve-http shape. The open-loop rate sits near a third of the closed-loop
// saturation of two loopback connections on a 2-core host, so the open loop
// measures latency without a standing queue.
const (
	httpSessions  = 20000
	httpOpenRate  = 8000.0 // requests per second, all connections together
	httpTracePool = 256
	httpSetupReps = 5
	httpWindow    = int64(250 * time.Millisecond)
	firstWindow   = int64(250 * time.Millisecond) // warm-up runs ~20k first decides in about a second
	maxDrain      = 250 * time.Millisecond
)

// serveLadder is the ladder both serving workloads stream (soda-server
// -ladder youtube4k): the ladder Figure 10 pairs with Puffer throughput, the
// traces the virtual players walk, so most decisions fall inside the
// decision table's throughput domain.
func serveLadder() video.Ladder { return video.YouTube4K() }

// httpOptions are the DecideService options soda-server wires by default.
func httpOptions() httpseg.DecideOptions {
	return httpseg.DecideOptions{CacheEntries: 1 << 16, TableQuantum: tableQuantum}
}

// httpState is one set-up serve-http instance: service, loopback server,
// client connections and the virtual players.
type httpState struct {
	st      *stack
	srv     *http.Server
	served  chan error
	conns   []*client
	viewers []viewer
	first   []int64  // warm-up first-decide latencies, ns
	firstAt []int64  // when each first decide returned
	warmup  [2]int64 // start and end of the warm-up
	trMS    float64  // trace synthesis per trace, ms
	handler *handlerTimer
}

// handlerTimer times ServeHTTP from outside the service, in the traced run.
type handlerTimer struct {
	next    http.Handler
	on      atomic.Bool
	n       atomic.Int64
	samples []int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := nowNS()
	h.next.ServeHTTP(w, r)
	if i := h.n.Add(1) - 1; i < int64(len(h.samples)) {
		h.samples[i] = nowNS() - start
	}
}

func (h *handlerTimer) recorded() []int64 {
	return h.samples[:min(h.n.Load(), int64(len(h.samples)))]
}

// client is one keep-alive HTTP/1.1 connection speaking the /decide query
// surface directly, so the load generator spends as little of the shared
// CPU as possible on its own side of the wire.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// decideReply mirrors the /decide JSON reply.
type decideReply struct {
	Session     int64   `json:"session"`
	Segment     int     `json:"segment"`
	Rung        int     `json:"rung"`
	BitrateMbps float64 `json:"bitrate_mbps"`
	WaitSeconds float64 `json:"wait_s"`
}

var errStatus = errors.New("non-200 reply")

// decide issues one /decide request and parses the reply.
func (c *client) decide(key string, buffer, throughput float64) (decideReply, error) {
	b := append(c.req[:0], "GET /decide?session="...)
	b = append(b, key...)
	b = append(b, "&buffer="...)
	b = strconv.AppendFloat(b, buffer, 'g', -1, 64)
	b = append(b, "&throughput="...)
	b = strconv.AppendFloat(b, throughput, 'g', -1, 64)
	b = append(b, "&cap=20 HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	c.req = b
	var rep decideReply
	if _, err := c.conn.Write(b); err != nil {
		return rep, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return rep, err
	}
	n := int(resp.ContentLength)
	if n < 0 || n > 4096 {
		resp.Body.Close()
		return rep, fmt.Errorf("reply body of %d bytes", n)
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	_, err = io.ReadFull(resp.Body, c.body[:n])
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%w: %d %s", errStatus, resp.StatusCode, c.body[:n])
	}
	err = json.Unmarshal(c.body[:n], &rep)
	return rep, err
}

func setupHTTP(p params, traced bool) (*httpState, error) {
	ladder := serveLadder()
	pool, trMS, err := tracePool(tracegen.Puffer(), httpTracePool, units.Seconds(120), p.seed)
	if err != nil {
		return nil, err
	}
	s := &httpState{trMS: trMS, served: make(chan error, 1)}
	s.viewers = make([]viewer, httpSessions)
	for i := range s.viewers {
		s.viewers[i] = newViewer("s"+strconv.Itoa(i), pool[i%len(pool)], i/len(pool))
	}
	if s.st, err = newStack(ladder, httpOptions()); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	var h http.Handler = s.st.svc
	if traced {
		s.handler = &handlerTimer{next: s.st.svc, samples: make([]int64, 1<<20)}
		h = s.handler
	}
	mux.Handle("/decide", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: mux}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < p.procs; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, &client{conn: conn, br: bufio.NewReader(conn)})
	}
	// Warm-up: every viewer's first decide, closed loop on every connection.
	// These are the service's session creations; the timed phases only read.
	s.first = make([]int64, httpSessions)
	s.firstAt = make([]int64, httpSessions)
	s.warmup[0] = nowNS()
	err = s.eachConn(func(c int, cl *client) error {
		for i := c; i < len(s.viewers); i += len(s.conns) {
			v := &s.viewers[i]
			thr := v.nextThroughput()
			start := nowNS()
			rep, err := cl.decide(v.key, v.buffer, thr)
			if err != nil {
				return fmt.Errorf("warm-up decide: %w", err)
			}
			s.firstAt[i] = nowNS()
			s.first[i] = s.firstAt[i] - start
			v.apply(ladder, rep.Rung, rep.WaitSeconds, thr)
		}
		return nil
	})
	s.warmup[1] = nowNS()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// eachConn runs fn on every connection in its own goroutine and waits.
func (s *httpState) eachConn(fn func(c int, cl *client) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for c, cl := range s.conns {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			errs[c] = fn(c, cl)
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *httpState) close() {
	for _, c := range s.conns {
		c.conn.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
}

// connLog is what one connection records in one timed phase.
type connLog struct {
	lat    []int64 // scheduled send (open loop) or send (closed loop) to reply, ns
	at     []int64 // when each lat sample was scheduled (open) or sent (closed)
	rtt    []int64 // send to reply, ns
	gap    []int64 // closed loop: previous reply to this send, ns
	lag    []int64 // open loop: send minus the later of scheduled time and previous reply
	sample []served
	ok     int64
	failed int64
	bad    string // first failure
	// lastSent is when the connection sent its last request. In an open
	// loop every request scheduled before the phase's end is sent, late or
	// not, so a generator that fell behind shows as sends past the end.
	lastSent int64
}

// phase runs one timed phase on every connection for dur. rate > 0 is an
// open loop: each connection follows its own Poisson schedule at
// rate/connections. rate 0 is a closed loop.
func (s *httpState) phase(p params, dur time.Duration, rate float64, during func()) (logs []connLog, start, end int64, err error) {
	ladder := serveLadder()
	logs = make([]connLog, len(s.conns))
	runtime.GC() // every phase starts from a collected heap
	start = nowNS()
	end = start + int64(dur)
	perConn := rate / float64(len(s.conns))
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = s.eachConn(func(c int, cl *client) error {
			lg := &logs[c]
			capHint := int(float64(dur.Seconds()) * 30000 / float64(len(s.conns)))
			if rate > 0 {
				capHint = int(dur.Seconds()*perConn*1.2) + 64
				lg.lag = make([]int64, 0, capHint)
			}
			lg.lat = make([]int64, 0, capHint)
			lg.at = make([]int64, 0, capHint)
			lg.rtt = make([]int64, 0, capHint)
			rng := rand.New(rand.NewSource(p.seed*1000 + int64(c)))
			var pc *pacer
			if rate > 0 {
				var err error
				if pc, err = newPacer(); err != nil {
					return err
				}
				defer pc.close()
			}
			next := c // this connection's viewers are c, c+conns, c+2*conns, ...
			due, prevDone := start, start
			for n := 0; ; n++ {
				if rate > 0 {
					due += int64(rng.ExpFloat64() / perConn * 1e9)
					if due >= end {
						break
					}
					if err := pc.waitUntil(due); err != nil {
						return err
					}
				} else if nowNS() >= end {
					break
				}
				v := &s.viewers[next]
				next += len(s.conns)
				if next >= len(s.viewers) {
					next = c
				}
				thr := v.nextThroughput()
				sent := nowNS()
				lg.lastSent = sent
				rep, derr := cl.decide(v.key, v.buffer, thr)
				got := nowNS()
				if rate > 0 {
					lg.lag = append(lg.lag, sent-max(due, prevDone))
				} else {
					if n > 0 {
						lg.gap = append(lg.gap, sent-prevDone)
					}
					due = sent
				}
				prevDone = got
				if derr != nil || rep.Rung >= ladder.Len() || (rep.Rung < 0 && rep.WaitSeconds <= 0) {
					lg.failed++
					lg.lat = append(lg.lat, failedNS)
					lg.at = append(lg.at, due)
					if lg.bad == "" {
						lg.bad = fmt.Sprintf("viewer %s: rung %d wait %g err %v", v.key, rep.Rung, rep.WaitSeconds, derr)
					}
					if derr != nil && !errors.Is(derr, errStatus) {
						return derr // the connection is unusable
					}
					continue
				}
				lg.ok++
				lg.lat = append(lg.lat, got-due)
				lg.at = append(lg.at, due)
				lg.rtt = append(lg.rtt, got-sent)
				if n%replaySample == 0 {
					lg.sample = append(lg.sample, served{buffer: v.buffer, throughput: thr,
						prev: v.prev, segment: rep.Segment, rung: rep.Rung})
				}
				v.apply(ladder, rep.Rung, rep.WaitSeconds, thr)
			}
			return nil
		})
	}()
	if during != nil {
		for {
			select {
			case <-done:
				return logs, start, end, err
			case <-time.After(spanSampleEvery):
				during()
			}
		}
	}
	<-done
	return logs, start, end, err
}

func merge(logs []connLog, pick func(*connLog) []int64) []int64 {
	var out []int64
	for i := range logs {
		out = append(out, pick(&logs[i])...)
	}
	return out
}

func runServeHTTP(p params) (*result, error) {
	stopSpinners, err := startSpinners(p.procs)
	if err != nil {
		return nil, err
	}
	defer stopSpinners()
	r := &result{}
	ladder := serveLadder()
	var heapBase uint64
	var firstP50s, firstP99s []float64 // per warm-up window of every setup, ns
	setupS, s, err := medianSetup(httpSetupReps, func() (*httpState, error) {
		s, err := setupHTTP(p, p.traced)
		if err == nil {
			firstP50s = append(firstP50s, windows(s.firstAt, s.first, s.warmup[0], s.warmup[1], firstWindow, p50Window)...)
			firstP99s = append(firstP99s, windows(s.firstAt, s.first, s.warmup[0], s.warmup[1], firstWindow, p99Window)...)
		}
		return s, err
	}, func(s *httpState) { s.close() }, &heapBase)
	if err != nil {
		return nil, err
	}
	defer s.close()
	heapPerSession := float64(int64(liveHeap())-int64(heapBase)) / httpSessions

	sessBefore := s.st.svc.SessionStats()
	solveBefore := solverCounts(s.st.col)
	incBefore := incidentCounts(s.st.watchdog)
	rtBefore := readRuntime()

	total := time.Duration(p.seconds) * time.Second
	open, openStart, openEnd, err := s.phase(p, total*2/3, httpOpenRate, nil)
	if err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	var spans *spanSampler
	var during func()
	if p.traced {
		s.handler.on.Store(true)
		spans = newSpanSampler(s.st.flight)
		during = spans.sample
	}
	closed, closedStart, closedEnd, err := s.phase(p, total/3, 0, during)
	if err != nil {
		return nil, fmt.Errorf("closed-loop phase: %w", err)
	}
	if p.traced {
		s.handler.on.Store(false)
		spans.sample()
	}
	rtAfter := readRuntime()

	var okClosed, okAll, failedAll, drainNS int64
	var sample []served
	bad := ""
	for _, phaseLogs := range [][]connLog{open, closed} {
		for i := range phaseLogs {
			lg := &phaseLogs[i]
			okAll += lg.ok
			failedAll += lg.failed
			sample = append(sample, lg.sample...)
			if bad == "" {
				bad = lg.bad
			}
		}
	}
	for i := range closed {
		okClosed += closed[i].ok
	}
	for i := range open {
		drainNS = max(drainNS, open[i].lastSent-openEnd)
	}
	r.attempted, r.failed = okAll+failedAll, failedAll

	openLat := merge(open, func(l *connLog) []int64 { return l.lat })
	openAt := merge(open, func(l *connLog) []int64 { return l.at })
	closedLat := merge(closed, func(l *connLog) []int64 { return l.lat })
	closedAt := merge(closed, func(l *connLog) []int64 { return l.at })
	rate := fastRate(windows(closedAt, closedLat, closedStart, closedEnd, httpWindow, okPerSecond))
	p50 := fastLatency(windows(openAt, openLat, openStart, openEnd, httpWindow, p50Window))
	p99s := windows(openAt, openLat, openStart, openEnd, httpWindow, p99Window)
	p99 := fastLatency(p99s)
	first := summarize(s.first)
	lat := summarize(openLat)
	r.add(metric{name: "setup_s", value: setupS, unit: "s", n: httpSetupReps})
	r.add(metric{name: "decisions_per_s", value: rate, unit: "1/s"})
	r.layer(metric{name: "decide_p50_ms", value: p50 / 1e6, unit: "ms", n: lat.n})
	r.layer(metric{name: "decide_p99_ms", value: p99 / 1e6, unit: "ms", n: lat.n})
	r.expect("decide_p99_ms-support", !math.IsNaN(p99),
		"%d quarter-second windows, at least one with ten samples beyond its p99", len(p99s))
	r.note("decide_p99_ms per window (ms): %.3f", scaled(p99s, 1e-6))
	r.note("open loop over all %d requests: p50 %.4f ms, p99 %.4f ms", lat.n, nsValue(lat.p50, 1e6), nsValue(lat.p99, 1e6))
	// First decides: the fast-side decile over the warm-up windows of every
	// setup repetition.
	firstP99 := fastLatency(firstP99s)
	r.add(metric{name: "first_decide_p50_us", value: fastLatency(firstP50s) / 1e3, unit: "us", n: first.n})
	r.layer(metric{name: "first_decide_p99_us", value: firstP99 / 1e3, unit: "us", n: first.n})
	r.expect("first_decide_p99_us-support", !math.IsNaN(firstP99),
		"%d warm-up windows of %v over %d setups, at least one with ten samples beyond its p99",
		len(firstP99s), time.Duration(firstWindow), httpSetupReps)
	r.add(metric{name: "heap_bytes_per_session", value: heapPerSession, unit: "B"})

	// Open-loop discipline: the generator must keep its schedule. Its last
	// scheduled request going out more than maxDrain after the phase's end
	// means a backlog built up that it could not work off (a host stall of a
	// few milliseconds delays only the requests scheduled during it); a
	// pacer lag median beyond a quarter of the mean per-connection gap means
	// its own wake-ups, not the server, set the latency.
	lag := summarize(merge(open, func(l *connLog) []int64 { return l.lag }))
	gapNS := float64(len(s.conns)) / httpOpenRate * 1e9
	r.expect("open-loop-on-schedule", drainNS <= int64(maxDrain) && float64(lag.p50) < gapNS/4,
		"last scheduled request sent %.1f ms after the phase end (limit %v), pacer lag p50 %.1f us against a %.0f us mean gap",
		float64(drainNS)/1e6, maxDrain, float64(lag.p50)/1e3, gapNS/1e3)
	r.expect("replies-200-in-range", failedAll == 0, "%d of %d replies failed %s", failedAll, r.attempted, bad)
	mism, firstBad := referenceMismatches(ladder, tableQuantum, sample)
	r.expect("reference-replay", mism == 0 && len(sample) > 0,
		"%d sampled decisions, %d differ from the reference controller %s", len(sample), mism, firstBad)
	sessAfter := s.st.svc.SessionStats()
	r.expect("no-session-creates", sessAfter.Created == sessBefore.Created,
		"%d sessions created in the timed phases", sessAfter.Created-sessBefore.Created)

	if p.traced {
		r.traceHTTP(s, spans, closed, lag, sessBefore, sessAfter)
		r.solverLayers(solverCounts(s.st.col).Delta(solveBefore))
		r.incidentLayers(incBefore, incidentCounts(s.st.watchdog), httpSessions)
		r.runtimeLayers(rtBefore, rtAfter, okAll+failedAll)
		cfg := serviceConfig(httpOptions())
		compile, err := compileSeconds(cfg, ladder)
		if err != nil {
			return nil, err
		}
		r.layer(metric{name: "core.table_compile_s", unit: "s", value: compile})
		r.layer(metric{name: "core.init_prewarm_us", unit: "us", value: initPrewarmUS(cfg, ladder, 2000), n: 2000})
		r.layer(metric{name: "tracegen.session_ms", unit: "ms", value: s.trMS, n: httpTracePool})
		r.ledgerWhat = "closed-loop time per decision per connection"
		r.ledgerE2EUS = float64(closedEnd-closedStart) / 1e3 / float64(okClosed) * float64(len(s.conns))
		r.layer(metric{name: "ledger.unaccounted_share", unit: "ratio", value: r.unaccounted()})
	}
	return r, nil
}

// traceHTTP adds the serve-http per-layer metrics and ledger rows.
func (r *result) traceHTTP(s *httpState, spans *spanSampler, closed []connLog, lag summary,
	before, after sessiontable.Stats) {
	handler := summarize(s.handler.recorded())
	rtt := summarize(merge(closed, func(l *connLog) []int64 { return l.rtt }))
	respond := spans.meanNS(flightrec.StageRespond)
	r.layer(metric{name: "httpseg.handler_p50_us", unit: "us", value: float64(handler.p50) / 1e3, n: handler.n})
	r.layer(metric{name: "httpseg.handler_p99_us", unit: "us", value: float64(handler.p99) / 1e3, n: handler.n})
	r.layer(metric{name: "httpseg.parse_encode_self_us", unit: "us", value: (handler.mean - respond) / 1e3, n: handler.n})
	r.layer(metric{name: "httpseg.transport_self_us", unit: "us", value: (rtt.mean - handler.mean) / 1e3, n: rtt.n})
	r.layer(metric{name: "loadgen.pacer_lag_p50_us", unit: "us", value: float64(lag.p50) / 1e3, n: lag.n})
	r.layer(metric{name: "loadgen.pacer_lag_p99_us", unit: "us", value: float64(lag.p99) / 1e3, n: lag.n})
	r.stageLayers(spans, func(flightrec.Span) bool { return false })
	r.layer(metric{name: "sessiontable.created", unit: "count", value: float64(after.Created - before.Created)})
	r.layer(metric{name: "sessiontable.evicted_idle", unit: "count", value: float64(after.EvictedIdle - before.EvictedIdle)})
	r.layer(metric{name: "sessiontable.rejected", unit: "count",
		value: float64(after.RejectedCapacity + after.RejectedDraining - before.RejectedCapacity - before.RejectedDraining)})
	gap := summarize(merge(closed, func(l *connLog) []int64 { return l.gap }))
	r.ledger = append([]ledgerRow{
		{"client player model", gap.mean / 1e3, "reply to next send"},
		{"transport + client codec", (rtt.mean - handler.mean) / 1e3, "round trip minus handler"},
		{"httpseg parse/encode", (handler.mean - respond) / 1e3, "handler minus respond span"},
	}, stageLedger(spans)...)
}
