package sessiontable

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// scanTable is the reference session table: the design before the per-shard
// idle list, whose capacity reclaim and sweep scan the whole shard map. Its
// Acquire, reclaimLocked, Release and Sweep bodies are kept verbatim from
// that design, so FuzzTableAgainstScan checks the idle-list table against
// the semantics it replaced rather than against a restatement of them.
type scanTable struct {
	shards   []scanShard
	mask     uint64
	perShard int

	draining atomic.Bool
	nextID   atomic.Int64
	active   atomic.Int64

	created          atomic.Uint64
	evictedIdle      atomic.Uint64
	rejectedCapacity atomic.Uint64
	rejectedDraining atomic.Uint64

	ttl     int64
	onEvict func(*Session)
}

type scanShard struct {
	mu      sync.Mutex
	entries map[string]*Session
}

func newScanTable(shards, perShard int, ttl int64, onEvict func(*Session)) *scanTable {
	t := &scanTable{
		shards:   make([]scanShard, shards),
		mask:     uint64(shards - 1),
		perShard: perShard,
		ttl:      ttl,
		onEvict:  onEvict,
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*Session)
	}
	return t
}

func (t *scanTable) shardFor(key string) *scanShard {
	return &t.shards[keyHash(key)&t.mask]
}

func (t *scanTable) Acquire(key string, now int64, create func(s *Session) error) (*Session, error) {
	if t.draining.Load() {
		t.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	if s, ok := sh.entries[key]; ok {
		s.refs.Add(1)
		sh.mu.Unlock()
		return s, nil
	}
	if len(sh.entries) >= t.perShard {
		victim := sh.reclaimLocked(t.ttl, now)
		if victim == nil {
			sh.mu.Unlock()
			t.rejectedCapacity.Add(1)
			return nil, ErrCapacity
		}
		if t.onEvict != nil {
			t.onEvict(victim)
		}
		t.active.Add(-1)
		t.evictedIdle.Add(1)
	}
	s := &Session{key: key, id: t.nextID.Add(1) - 1}
	s.lastUse.Store(now)
	s.refs.Store(1)
	if create != nil {
		if err := create(s); err != nil {
			sh.mu.Unlock()
			t.rejectedCapacity.Add(1)
			return nil, err
		}
	}
	sh.entries[key] = s
	sh.mu.Unlock()
	t.active.Add(1)
	t.created.Add(1)
	return s, nil
}

func (sh *scanShard) reclaimLocked(ttl, now int64) *Session {
	if ttl <= 0 {
		return nil
	}
	var oldest *Session
	for _, s := range sh.entries {
		if s.refs.Load() != 0 {
			continue
		}
		if now-s.lastUse.Load() < ttl {
			continue
		}
		if oldest == nil || s.lastUse.Load() < oldest.lastUse.Load() {
			oldest = s
		}
	}
	if oldest == nil {
		return nil
	}
	delete(sh.entries, oldest.key)
	return oldest
}

func (t *scanTable) Release(s *Session, now int64) {
	s.lastUse.Store(now)
	s.refs.Add(-1)
}

func (t *scanTable) Sweep(now int64) int {
	if t.ttl <= 0 {
		return 0
	}
	evicted := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, s := range sh.entries {
			if s.refs.Load() != 0 {
				continue
			}
			if now-s.lastUse.Load() < t.ttl {
				continue
			}
			delete(sh.entries, key)
			if t.onEvict != nil {
				t.onEvict(s)
			}
			evicted++
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		t.active.Add(int64(-evicted))
		t.evictedIdle.Add(uint64(evicted))
	}
	return evicted
}

func (t *scanTable) Stats() Stats {
	return Stats{
		Active:           int(t.active.Load()),
		Shards:           len(t.shards),
		PerShardCapacity: t.perShard,
		Created:          t.created.Load(),
		EvictedIdle:      t.evictedIdle.Load(),
		RejectedCapacity: t.rejectedCapacity.Load(),
		RejectedDraining: t.rejectedDraining.Load(),
	}
}

// checkIdleLists verifies the idle-list invariants of every shard: the list
// is doubly linked consistently, ordered by non-decreasing last-use stamp,
// and holds exactly the shard's entries that have no holders.
func checkIdleLists(t *testing.T, tb *Table) {
	t.Helper()
	for i := range tb.shards {
		sh := &tb.shards[i]
		sh.mu.Lock()
		idle := 0
		for _, s := range sh.entries {
			if s.refs.Load() == 0 {
				idle++
			}
		}
		n := 0
		var prev *Session
		for s := sh.head; s != nil; s = s.next {
			switch {
			case s.prev != prev:
				t.Errorf("shard %d: %q has a broken prev link", i, s.key)
			case s.refs.Load() != 0:
				t.Errorf("shard %d: held session %q on the idle list", i, s.key)
			case sh.entries[s.key] != s:
				t.Errorf("shard %d: idle-list session %q is not in the map", i, s.key)
			case prev != nil && prev.lastUse.Load() > s.lastUse.Load():
				t.Errorf("shard %d: idle list out of order at %q", i, s.key)
			}
			prev = s
			if n++; n > len(sh.entries) {
				t.Errorf("shard %d: idle list longer than the map (cycle?)", i)
				break
			}
		}
		if sh.tail != prev {
			t.Errorf("shard %d: tail does not end the idle list", i)
		}
		if n != idle {
			t.Errorf("shard %d: idle list holds %d sessions, map has %d idle", i, n, idle)
		}
		sh.mu.Unlock()
	}
}

var errCreate = errors.New("create failed")

// maxFuzzOps bounds one FuzzTableAgainstScan sequence: enough operations to
// fill, reclaim and sweep the largest fuzzed table (4 shards x 8 sessions).
const maxFuzzOps = 128

// fuzzKeys is the fuzzed key space: twice the largest table's capacity plus
// two, so acquires hit both existing and new keys.
var fuzzKeys = func() []string {
	keys := make([]string, 2*4*8+2)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}()

// FuzzTableAgainstScan replays random operation sequences — acquires of new
// and existing keys, overlapping holders of one key, failing creates,
// releases with jittered non-monotone stamps, sweeps — against the idle-list
// table and the full-scan reference in lock step. Every step must agree on
// the admission outcome, the reclaim victim's last-use stamp (any tied
// entry is a correct victim), Stats, and the set of handles passed to
// OnEvict; the hook must never see a held session.
//
// The first three arguments shape the table: 1, 2 or 4 shards, 1–8
// sessions per shard, and a TTL of 0 (eviction off) to 7 clock ticks. Each
// op byte's low three bits pick the operation, the next two advance the
// clock by 0–3 ticks; the following byte is the operation's argument.
// Sequences are cut at maxFuzzOps operations, which keeps the fuzzer's
// minimisation of each new input short.
func FuzzTableAgainstScan(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(2), []byte{0, 0, 4, 0, 0, 1, 4, 0, 0, 2, 4, 0, 0, 3, 4, 0, 0, 4, 0, 5, 24, 0, 0, 6})
	f.Add(uint8(1), uint8(1), uint8(3), []byte{0, 1, 0, 1, 0, 2, 4, 1, 28, 0, 0, 3, 4, 0, 7, 0, 3, 9, 20, 0, 0, 8})
	f.Add(uint8(2), uint8(7), uint8(5), []byte{1, 0, 2, 1, 8, 2, 5, 0, 5, 0, 29, 1, 3, 4, 0, 9, 24, 0, 7, 0, 0, 10})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0, 0, 4, 0, 0, 1, 7, 0, 3, 0})
	f.Fuzz(func(t *testing.T, shardSel, perShardSel, ttlSel uint8, ops []byte) {
		if len(ops) > 2*maxFuzzOps {
			ops = ops[:2*maxFuzzOps]
		}
		shards := 1 << (shardSel % 3)
		perShard := 1 + int(perShardSel%8)
		ttl := int64(ttlSel % 8)

		var realEvicted, scanEvicted []*Session
		tb := New(Config{MaxSessions: shards * perShard, TTLNanos: ttl, Shards: shards,
			OnEvict: func(s *Session) {
				if s.refs.Load() != 0 {
					t.Errorf("OnEvict saw held session %q (refs %d)", s.key, s.refs.Load())
				}
				realEvicted = append(realEvicted, s)
			}})
		ref := newScanTable(shards, perShard, ttl, func(s *Session) { scanEvicted = append(scanEvicted, s) })
		if got := tb.Stats(); got.Shards != shards || got.PerShardCapacity != perShard {
			t.Fatalf("table shape %d x %d, want %d x %d", got.Shards, got.PerShardCapacity, shards, perShard)
		}

		keys := fuzzKeys[:2*shards*perShard+2]
		create := func(s *Session) error { s.Handle = uint64(s.ID()) + 1; return nil }
		failCreate := func(*Session) error { return errCreate }
		type holder struct{ real, scan *Session }
		var holders []holder
		now := int64(100)

		for len(ops) >= 2 && !t.Failed() {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			now += int64(op>>3) & 3
			realEvicted, scanEvicted = realEvicted[:0], scanEvicted[:0]
			switch kind := op & 7; {
			case kind <= 3:
				key, mk := keys[int(arg)%len(keys)], create
				if kind == 3 {
					mk = failCreate
				}
				rs, rerr := tb.Acquire(key, now, mk)
				ss, serr := ref.Acquire(key, now, mk)
				if !errors.Is(rerr, serr) {
					t.Fatalf("Acquire(%q, %d): table %v, reference %v", key, now, rerr, serr)
				}
				if rerr == nil {
					if rs.ID() != ss.ID() || rs.Handle != ss.Handle {
						t.Fatalf("Acquire(%q): table id %d handle %d, reference id %d handle %d",
							key, rs.ID(), rs.Handle, ss.ID(), ss.Handle)
					}
					holders = append(holders, holder{rs, ss})
				}
				if len(realEvicted) != len(scanEvicted) {
					t.Fatalf("Acquire(%q, %d): table reclaimed %d, reference %d", key, now, len(realEvicted), len(scanEvicted))
				}
				if len(realEvicted) == 1 {
					resyncVictim(t, ref, realEvicted[0], scanEvicted[0])
				}
			case kind <= 6:
				if len(holders) == 0 {
					continue
				}
				i := int(arg) % len(holders)
				h := holders[i]
				holders = append(holders[:i], holders[i+1:]...)
				stamp := now + int64(arg>>5) - 3 // jitter in [-3, +4]: non-monotone
				tb.Release(h.real, stamp)
				ref.Release(h.scan, stamp)
			default:
				rn, sn := tb.Sweep(now), ref.Sweep(now)
				if rn != sn {
					t.Fatalf("Sweep(%d): table evicted %d, reference %d", now, rn, sn)
				}
				if r, s := handles(realEvicted), handles(scanEvicted); !slices.Equal(r, s) {
					t.Fatalf("Sweep(%d): table evicted handles %v, reference %v", now, r, s)
				}
			}
			if r, s := tb.Stats(), ref.Stats(); r != s {
				t.Fatalf("after op %d: table stats %+v, reference %+v", op, r, s)
			}
			checkIdleLists(t, tb)
		}
	})
}

// resyncVictim checks one capacity reclaim: the table's victim must carry
// the same last-use stamp as the reference's. Equal stamps make either
// entry a correct victim, so when they differ the reference is switched to
// the table's choice to keep the two in lock step.
func resyncVictim(t *testing.T, ref *scanTable, real, scan *Session) {
	t.Helper()
	if real.lastUse.Load() != scan.lastUse.Load() {
		t.Fatalf("reclaim victim %q stamped %d, reference picked %q stamped %d",
			real.key, real.lastUse.Load(), scan.key, scan.lastUse.Load())
	}
	if real.Handle == scan.Handle {
		return
	}
	sh := ref.shardFor(real.key)
	twin, ok := sh.entries[real.key]
	if !ok || twin.Handle != real.Handle || twin.refs.Load() != 0 {
		t.Fatalf("table reclaimed %q (handle %d), which the reference does not hold idle", real.key, real.Handle)
	}
	delete(sh.entries, real.key)
	sh.entries[scan.key] = scan
}

func handles(ss []*Session) []uint64 {
	out := make([]uint64, len(ss))
	for i, s := range ss {
		out[i] = s.Handle
	}
	slices.Sort(out)
	return out
}
