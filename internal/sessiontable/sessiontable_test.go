package sessiontable

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const second = int64(1e9) // one second of the injected nanosecond clock

func mustAcquire(t *testing.T, tb *Table, key string, now int64) *Session {
	t.Helper()
	s, err := tb.Acquire(key, now, func(s *Session) error { s.Value = s.ID(); return nil })
	if err != nil {
		t.Fatalf("Acquire(%q): %v", key, err)
	}
	return s
}

func TestTableAcquireStableIdentity(t *testing.T) {
	tb := New(Config{MaxSessions: 64, TTLNanos: 10 * second})
	a := mustAcquire(t, tb, "alice", 0)
	tb.Release(a, 0)
	b := mustAcquire(t, tb, "bob", 0)
	tb.Release(b, 0)
	if a.ID() == b.ID() {
		t.Fatalf("distinct keys share id %d", a.ID())
	}
	if a.Key() != "alice" {
		t.Fatalf("Key() = %q", a.Key())
	}
	again := mustAcquire(t, tb, "alice", second)
	tb.Release(again, second)
	if again != a {
		t.Fatal("re-acquire returned a different session")
	}
	if got := tb.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	if st := tb.Stats(); st.Created != 2 || st.Active != 2 {
		t.Fatalf("stats = %+v, want 2 created / 2 active", st)
	}
}

func TestTableCreateValue(t *testing.T) {
	tb := New(Config{MaxSessions: 8})
	s := mustAcquire(t, tb, "k", 0)
	if got, ok := s.Value.(int64); !ok || got != s.ID() {
		t.Fatalf("create callback value = %v, want session id %d", s.Value, s.ID())
	}
	tb.Release(s, 0)
}

// TestTTLSweepBoundaries pins the sweep threshold arithmetic: eviction
// happens exactly at idle >= TTL, never below, and a zero TTL disables the
// sweep entirely.
func TestTTLSweepBoundaries(t *testing.T) {
	const ttl = 10 * second
	cases := []struct {
		name        string
		ttl         int64
		releasedAt  int64
		sweepAt     int64
		wantEvicted int
	}{
		{"just-under", ttl, 0, ttl - 1, 0},
		{"exactly-at", ttl, 0, ttl, 1},
		{"well-past", ttl, 0, 100 * second, 1},
		{"fresh", ttl, 5 * second, 5*second + 1, 0},
		{"zero-ttl-never", 0, 0, 1 << 62, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(Config{MaxSessions: 8, TTLNanos: tc.ttl})
			s := mustAcquire(t, tb, "k", 0)
			tb.Release(s, tc.releasedAt)
			if got := tb.Sweep(tc.sweepAt); got != tc.wantEvicted {
				t.Fatalf("Sweep evicted %d, want %d", got, tc.wantEvicted)
			}
			wantLen := 1 - tc.wantEvicted
			if got := tb.Len(); got != wantLen {
				t.Fatalf("Len() = %d after sweep, want %d", got, wantLen)
			}
			if st := tb.Stats(); int(st.EvictedIdle) != tc.wantEvicted {
				t.Fatalf("EvictedIdle = %d, want %d", st.EvictedIdle, tc.wantEvicted)
			}
		})
	}
}

// TestSweepSkipsHeldSessions: an in-flight session is never evicted, no
// matter how stale its last-use stamp looks.
func TestSweepSkipsHeldSessions(t *testing.T) {
	tb := New(Config{MaxSessions: 8, TTLNanos: second})
	s := mustAcquire(t, tb, "busy", 0)
	if got := tb.Sweep(100 * second); got != 0 {
		t.Fatalf("sweep evicted %d held sessions", got)
	}
	tb.Release(s, 100*second)
	if got := tb.Sweep(101*second - 1); got != 0 {
		t.Fatalf("freshly released session evicted (%d)", got)
	}
	if got := tb.Sweep(101 * second); got != 1 {
		t.Fatalf("idle session not evicted after release+TTL (%d)", got)
	}
}

func TestTableCapacityRejects(t *testing.T) {
	tb := New(Config{MaxSessions: 4, TTLNanos: 10 * second, Shards: 1})
	for i := 0; i < 4; i++ {
		s := mustAcquire(t, tb, fmt.Sprintf("s%d", i), 0)
		tb.Release(s, 0)
	}
	// All four are live (within TTL): the fifth must be rejected, not evict
	// a live session.
	if _, err := tb.Acquire("s4", second, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("Acquire at capacity = %v, want ErrCapacity", err)
	}
	if st := tb.Stats(); st.RejectedCapacity != 1 {
		t.Fatalf("RejectedCapacity = %d, want 1", st.RejectedCapacity)
	}
	// Existing sessions are still served at capacity.
	s := mustAcquire(t, tb, "s0", second)
	tb.Release(s, second)
	// Once the TTL passes, the full shard reclaims its stalest idle entry
	// in-line instead of rejecting.
	if _, err := tb.Acquire("s5", 20*second, nil); err != nil {
		t.Fatalf("Acquire after TTL expiry = %v, want reclaim", err)
	}
	if st := tb.Stats(); st.EvictedIdle != 1 {
		t.Fatalf("EvictedIdle = %d, want 1 from in-line reclaim", st.EvictedIdle)
	}
	if got := tb.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4 (reclaim replaced an entry)", got)
	}
}

// TestOnEvictHook pins the arena-integration contract: every eviction —
// in-line capacity reclaim and idle sweep alike — runs the hook with the
// dropped session, whose Handle identifies the arena slot to free.
func TestOnEvictHook(t *testing.T) {
	var freed []uint64
	tb := New(Config{MaxSessions: 4, TTLNanos: 10 * second, Shards: 1,
		OnEvict: func(s *Session) { freed = append(freed, s.Handle) }})
	for i := 0; i < 4; i++ {
		s, err := tb.Acquire(fmt.Sprintf("s%d", i), 0, func(s *Session) error {
			s.Handle = uint64(s.ID()) + 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Distinct last-use stamps make the LRU reclaim order deterministic.
		tb.Release(s, int64(i))
	}
	// The shard is full and every entry is idle past the TTL: admitting a
	// fifth session reclaims the least-recently-used entry through the hook.
	s, err := tb.Acquire("s4", 20*second, func(s *Session) error { s.Handle = 99; return nil })
	if err != nil {
		t.Fatal(err)
	}
	tb.Release(s, 20*second)
	if len(freed) != 1 || freed[0] != 1 {
		t.Fatalf("capacity reclaim freed handles %v, want [1]", freed)
	}
	// The idle sweep drops s1..s3 (s4 is fresh) and reports each to the hook.
	if n := tb.Sweep(20 * second); n != 3 {
		t.Fatalf("sweep evicted %d, want 3", n)
	}
	if len(freed) != 4 {
		t.Fatalf("hook saw %d evictions, want 4: %v", len(freed), freed)
	}
	seen := map[uint64]bool{}
	for _, h := range freed {
		seen[h] = true
	}
	for _, want := range []uint64{1, 2, 3, 4} {
		if !seen[want] {
			t.Fatalf("handle %d never reached the hook: %v", want, freed)
		}
	}
}

// TestAcquireCreateError pins the aborted-admission path: a failing create
// callback (the arena out of slots) inserts nothing, counts as a capacity
// rejection, surfaces its own error, and leaves the key admissible.
func TestAcquireCreateError(t *testing.T) {
	tb := New(Config{MaxSessions: 4})
	boom := errors.New("no slots")
	if _, err := tb.Acquire("k", 0, func(*Session) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Acquire with failing create = %v, want the create error", err)
	}
	if got := tb.Len(); got != 0 {
		t.Fatalf("failed create left %d live sessions", got)
	}
	if st := tb.Stats(); st.RejectedCapacity != 1 || st.Created != 0 {
		t.Fatalf("stats after failed create = %+v, want 1 capacity rejection, 0 created", st)
	}
	s := mustAcquire(t, tb, "k", 0)
	tb.Release(s, 0)
}

func TestTableDrainStopsAdmission(t *testing.T) {
	tb := New(Config{MaxSessions: 8, TTLNanos: 10 * second})
	s := mustAcquire(t, tb, "a", 0)
	tb.Release(s, 0)
	if tb.Draining() {
		t.Fatal("fresh table reports draining")
	}
	if got := tb.Drain(); got != 1 {
		t.Fatalf("Drain() = %d sessions, want 1", got)
	}
	if !tb.Draining() {
		t.Fatal("table not draining after Drain")
	}
	if _, err := tb.Acquire("a", second, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Acquire while draining = %v, want ErrDraining", err)
	}
	if st := tb.Stats(); st.RejectedDraining != 1 {
		t.Fatalf("RejectedDraining = %d, want 1", st.RejectedDraining)
	}
}

// TestDrainWhileDeciding: a drain that begins mid-decision leaves the
// in-flight holder untouched; the semaphore observes the work until the
// holder finishes, then DrainWait returns.
func TestDrainWhileDeciding(t *testing.T) {
	tb := New(Config{MaxSessions: 8, TTLNanos: 10 * second})
	sem := NewSemaphore(2)
	if !sem.TryAcquire() {
		t.Fatal("fresh semaphore rejected")
	}
	s := mustAcquire(t, tb, "busy", 0)

	tb.Drain()
	if sem.DrainWait(10 * time.Millisecond) {
		t.Fatal("DrainWait reported drained with a decide in flight")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The in-flight decision finishes after drain began.
		tb.Release(s, second)
		sem.Release()
	}()
	if !sem.DrainWait(5 * time.Second) {
		t.Fatal("DrainWait timed out after the decide finished")
	}
	wg.Wait()
	if got := s.refs.Load(); got != 0 {
		t.Fatalf("refs = %d after release, want 0", got)
	}
}

// TestChurnSteadyState is the memory-leak regression test: under continuous
// session churn with periodic sweeps, the live session count stays bounded
// by the capacity and old keys are really gone.
func TestChurnSteadyState(t *testing.T) {
	const capacity = 128
	tb := New(Config{MaxSessions: capacity, TTLNanos: 10 * second})
	now := int64(0)
	for i := 0; i < 10_000; i++ {
		now += second / 10
		s, err := tb.Acquire(fmt.Sprintf("churn-%d", i), now, nil)
		if err != nil {
			t.Fatalf("churn acquire %d: %v", i, err)
		}
		tb.Release(s, now)
		if i%50 == 0 {
			tb.Sweep(now)
		}
	}
	tb.Sweep(now + 11*second)
	if got := tb.Len(); got != 0 {
		t.Fatalf("steady-state Len() = %d after final sweep, want 0", got)
	}
	st := tb.Stats()
	if st.Created != 10_000 {
		t.Fatalf("Created = %d, want 10000", st.Created)
	}
	if st.EvictedIdle+uint64(st.Active) != st.Created {
		t.Fatalf("evicted %d + active %d != created %d", st.EvictedIdle, st.Active, st.Created)
	}
}

func TestTableConcurrentAcquire(t *testing.T) {
	tb := New(Config{MaxSessions: 1 << 12, TTLNanos: int64(time.Minute)})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("s%d", i%100)
				s, err := tb.Acquire(key, int64(i), nil)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				s.Mu.Lock()
				s.Value = g // the per-session lock serialises holders
				s.Mu.Unlock()
				tb.Release(s, int64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := tb.Len(); got != 100 {
		t.Fatalf("Len() = %d, want 100", got)
	}
}

func TestTableValidation(t *testing.T) {
	for _, bad := range []int{0, -1, maxTableSessions + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(MaxSessions=%d) did not panic", bad)
				}
			}()
			New(Config{MaxSessions: bad})
		}()
	}
	// Shard rounding: the per-shard capacity covers the total.
	tb := New(Config{MaxSessions: 100, Shards: 3})
	st := tb.Stats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want rounded to 4", st.Shards)
	}
	if st.PerShardCapacity*st.Shards < 100 {
		t.Fatalf("per-shard %d x %d shards < 100", st.PerShardCapacity, st.Shards)
	}
}

// TestTokenBucketRefill pins the token-bucket arithmetic: burst spending,
// lazy refill at the configured rate, the cap at burst, and the Retry-After
// hint when empty.
func TestTokenBucketRefill(t *testing.T) {
	cases := []struct {
		name  string
		rate  float64
		burst float64
		steps []struct {
			at        int64
			wantOK    bool
			wantRetry int64 // 0 means "don't check"
		}
	}{
		{
			name: "burst-then-starve", rate: 1, burst: 2,
			steps: []struct {
				at        int64
				wantOK    bool
				wantRetry int64
			}{
				{0, true, 0},
				{0, true, 0},
				{0, false, second}, // empty: one full token away at 1/s
				{second / 2, false, second / 2},
				{second, true, 0}, // exactly refilled
				{second, false, second},
			},
		},
		{
			name: "rate-10-refills-fast", rate: 10, burst: 1,
			steps: []struct {
				at        int64
				wantOK    bool
				wantRetry int64
			}{
				{0, true, 0},
				{0, false, second / 10},
				{second / 10, true, 0},
				{second / 5, true, 0},
			},
		},
		{
			name: "burst-caps-accrual", rate: 1000, burst: 3,
			steps: []struct {
				at        int64
				wantOK    bool
				wantRetry int64
			}{
				// A long idle period accrues only burst tokens.
				{3600 * second, true, 0},
				{3600 * second, true, 0},
				{3600 * second, true, 0},
				{3600 * second, false, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.rate, tc.burst)
			for i, step := range tc.steps {
				ok, retry := l.Allow("client", step.at)
				if ok != step.wantOK {
					t.Fatalf("step %d at t=%d: ok=%v, want %v", i, step.at, ok, step.wantOK)
				}
				if step.wantRetry > 0 {
					// The hint is float math over nanos; allow 1 µs of slack.
					if diff := retry - step.wantRetry; diff < -1000 || diff > 1000 {
						t.Fatalf("step %d: retry = %dns, want ~%dns", i, retry, step.wantRetry)
					}
				}
				if !ok && retry <= 0 {
					t.Fatalf("step %d: rejected with non-positive retry %d", i, retry)
				}
			}
		})
	}
}

func TestLimiterClientsIsolated(t *testing.T) {
	l := NewLimiter(1, 1)
	if ok, _ := l.Allow("a", 0); !ok {
		t.Fatal("client a's first request rejected")
	}
	if ok, _ := l.Allow("b", 0); !ok {
		t.Fatal("client b throttled by client a's spend")
	}
	if ok, _ := l.Allow("a", 0); ok {
		t.Fatal("client a's second burst request admitted")
	}
	if got := l.Clients(); got != 2 {
		t.Fatalf("Clients() = %d, want 2", got)
	}
}

func TestLimiterSweep(t *testing.T) {
	l := NewLimiter(100, 10)
	for i := 0; i < 50; i++ {
		l.Allow(fmt.Sprintf("c%d", i), 0)
	}
	if got := l.Sweep(second, 2*second); got != 0 {
		t.Fatalf("premature sweep dropped %d", got)
	}
	if got := l.Sweep(2*second, 2*second); got != 50 {
		t.Fatalf("sweep dropped %d, want 50", got)
	}
	if got := l.Clients(); got != 0 {
		t.Fatalf("Clients() = %d after sweep, want 0", got)
	}
	// Disabled and nil-safe variants.
	if got := l.Sweep(second, 0); got != 0 {
		t.Fatalf("idle=0 sweep dropped %d", got)
	}
	var nilL *Limiter
	if ok, _ := nilL.Allow("x", 0); !ok {
		t.Fatal("nil limiter rejected")
	}
	if nilL.Sweep(0, second) != 0 || nilL.Clients() != 0 {
		t.Fatal("nil limiter sweep/clients not zero")
	}
}

func TestLimiterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLimiter(0, 1) did not panic")
		}
	}()
	NewLimiter(0, 1)
}

func TestSemaphoreBounds(t *testing.T) {
	sem := NewSemaphore(2)
	if sem.Cap() != 2 {
		t.Fatalf("Cap() = %d", sem.Cap())
	}
	if !sem.TryAcquire() || !sem.TryAcquire() {
		t.Fatal("could not fill semaphore")
	}
	if sem.TryAcquire() {
		t.Fatal("over-admitted")
	}
	if got := sem.InFlight(); got != 2 {
		t.Fatalf("InFlight() = %d, want 2", got)
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("slot not reusable after release")
	}
	sem.Release()
	sem.Release()
	if !sem.DrainWait(time.Second) {
		t.Fatal("empty semaphore did not drain")
	}

	var nilSem *Semaphore
	if !nilSem.TryAcquire() || nilSem.Cap() != 0 || nilSem.InFlight() != 0 || !nilSem.DrainWait(0) {
		t.Fatal("nil semaphore is not a no-op admit-all")
	}
	nilSem.Release()

	defer func() {
		if recover() == nil {
			t.Error("NewSemaphore(0) did not panic")
		}
	}()
	NewSemaphore(0)
}

// TestTableConcurrentChurn drives the idle lists from every side at once
// under the race detector: churners admit a fresh key per operation into a
// full table with a one-tick TTL, so nearly every admission reclaims; holders
// repeatedly take and drop one shared key, overlapping each other; a sweeper
// runs throughout; and the shared clock hands out stamps that reach Release
// out of order. The live count must never exceed the cap, a held session
// must never be evicted, and every evicted handle must reach OnEvict exactly
// once.
func TestTableConcurrentChurn(t *testing.T) {
	const (
		capacity = 64
		churners = 4
		holders  = 4
		ops      = 2000
	)
	var (
		clock      atomic.Int64
		nextHandle atomic.Uint64
		mu         sync.Mutex
		evicted    = map[uint64]int{}
	)
	tb := New(Config{MaxSessions: capacity, TTLNanos: 1, Shards: 4,
		OnEvict: func(s *Session) {
			if refs := s.refs.Load(); refs != 0 {
				t.Errorf("evicted %q with %d holders", s.Key(), refs)
			}
			mu.Lock()
			evicted[s.Handle]++
			mu.Unlock()
		}})
	create := func(s *Session) error { s.Handle = nextHandle.Add(1); return nil }
	acquire := func(key string) *Session {
		s, err := tb.Acquire(key, clock.Add(1), create)
		if err != nil && !errors.Is(err, ErrCapacity) {
			t.Errorf("Acquire(%q): %v", key, err)
		}
		if n := tb.Len(); n > capacity {
			t.Errorf("Len() = %d over the cap %d", n, capacity)
		}
		return s
	}

	var wg, sweeper sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if s := acquire(fmt.Sprintf("c%d-%d", g, i)); s != nil {
					tb.Release(s, clock.Add(1))
				}
			}
		}(g)
	}
	for g := 0; g < holders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				s := acquire("shared")
				if s == nil {
					continue
				}
				stamp := clock.Add(1) // taken before the hold: arrives late
				runtime.Gosched()
				mu.Lock()
				if evicted[s.Handle] != 0 {
					t.Errorf("shared session (handle %d) evicted while held", s.Handle)
				}
				mu.Unlock()
				tb.Release(s, stamp)
			}
		}()
	}
	stop := make(chan struct{})
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tb.Sweep(clock.Load())
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	sweeper.Wait()

	st := tb.Stats()
	if st.Created != st.EvictedIdle+uint64(st.Active) {
		t.Fatalf("created %d != evicted %d + active %d", st.Created, st.EvictedIdle, st.Active)
	}
	if st.Created <= capacity {
		t.Fatalf("only %d sessions created: the churn never ran the table at its cap", st.Created)
	}
	if st.Created != nextHandle.Load() {
		t.Fatalf("created %d sessions, create callback ran %d times", st.Created, nextHandle.Load())
	}
	tb.Sweep(clock.Load() + 1)
	if got := tb.Len(); got != 0 {
		t.Fatalf("Len() = %d after the final sweep, want 0", got)
	}
	for h := uint64(1); h <= nextHandle.Load(); h++ {
		if n := evicted[h]; n != 1 {
			t.Fatalf("handle %d reached OnEvict %d times, want exactly once", h, n)
		}
	}
	checkIdleLists(t, tb)
}
