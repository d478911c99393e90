package server

// Result distribution: every attached query owns a resultLog — a bounded
// ring of emitted rows addressed by absolute 1-based cursors — and each
// subscription is a puller with its own cursor and slow-consumer policy.
//
// The cursor is the resume token: rows are emitted deterministically (the
// engine sorts each closing bucket), so row N of a restarted runtime is
// bit-identical to row N of one that never crashed. A subscriber that
// reconnects and asks for cursor N+1 therefore continues exactly where it
// left off, whatever happened to the server in between.
//
// Slow consumers: the emit (hot) path appends to the ring. When the ring is
// full, the oldest row is evicted — unless a PolicyBlock or
// PolicyDisconnect subscriber still needs it. PolicyBlock holds the emit
// path indefinitely (explicit opt-in backpressure); PolicyDisconnect holds
// it only for the subscription's stall budget and is then force-removed;
// PolicyDropOldest never holds anything and instead observes a cursor gap,
// reported to the client as an StGap frame. With only drop-oldest
// subscribers attached, an append never blocks — a stalled dashboard
// cannot touch ingest latency.
//
// The resultLog outlives runtime incarnations: on a supervised restart the
// ring is truncated to the last checkpoint's cursor and the WAL replay
// re-appends the identical rows, so attached subscribers keep their cursors
// and notice nothing but a pause.

import (
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
)

// fetchStatus tells a subscription goroutine why fetch returned.
type fetchStatus uint8

const (
	fetchRows    fetchStatus = iota // rows copied; deliver then advance
	fetchGap                        // rows were shed behind this subscriber
	fetchRemoved                    // force-removed by policy or detach
	fetchClosed                     // service shutting down
)

// subscriber is one subscription's cursor state, shared between its
// connection goroutine and the emit path (guarded by the resultLog mutex).
type subscriber struct {
	policy Policy
	// budget is the PolicyDisconnect stall allowance.
	budget time.Duration
	// cursor is the next cursor to deliver (1-based).
	cursor uint64
	// stalled, when nonzero, is when this subscriber first held up a full
	// ring; cleared when it advances.
	stalled time.Time
	// removed is set by the emit path (policy kill) or detach.
	removed bool
	// shedFrom..cursor-1 were dropped behind a PolicyDropOldest subscriber.
	shedFrom uint64
	shed     bool
}

// resultLog is the bounded result ring for one query.
type resultLog struct {
	mu   sync.Mutex
	wake chan struct{} // closed+replaced on every state change (broadcast)

	cap    int
	base   uint64 // cursor of rows[0]; next assigned cursor is base+len(rows)
	rows   []gsql.Tuple
	subs   map[*subscriber]struct{}
	closed bool // service shutdown: every waiter drains out

	// frozen drops appends silently: set while tearing an incarnation down
	// so run.Close()'s partial-bucket flush cannot pollute the cursor
	// sequence (those rows are re-derived by the successor's replay).
	frozen bool

	// onShed and onDisconnect count policy actions into service metrics.
	onShed       func(rows uint64)
	onDisconnect func()
}

func newResultLog(capacity int) *resultLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &resultLog{
		cap:  capacity,
		base: 1,
		subs: map[*subscriber]struct{}{},
		wake: make(chan struct{}),
	}
}

// broadcast wakes every waiter (emit path and subscribers).
func (rl *resultLog) broadcast() {
	close(rl.wake)
	rl.wake = make(chan struct{})
}

// end returns the highest assigned cursor (0 before the first row).
func (rl *resultLog) endLocked() uint64 { return rl.base + uint64(len(rl.rows)) - 1 }

// append adds one emitted row, enforcing slow-consumer policies when the
// ring is full.
func (rl *resultLog) append(row gsql.Tuple) { rl.appendFenced(row, nil) }

// appendFenced is append for the runtime's emit path (the listener pump):
// fence, when non-nil, is the owning incarnation's teardown fence. A writer
// parked here while its incarnation is torn down must drop the row when it
// wakes — even if a successor has already thawed the ring — because the
// successor's WAL replay re-derives that row itself.
func (rl *resultLog) appendFenced(row gsql.Tuple, fence *atomic.Bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.frozen || rl.closed {
		return
	}
	for len(rl.rows) >= rl.cap {
		if rl.evictOneLocked() {
			continue
		}
		// A holder refused the eviction; wait for it to advance, be
		// removed, or run out of stall budget.
		wake := rl.wake
		wait := rl.minBudgetLocked()
		rl.mu.Unlock()
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-wake:
			case <-t.C:
			}
			t.Stop()
		} else {
			<-wake
		}
		rl.mu.Lock()
		if rl.frozen || rl.closed || (fence != nil && fence.Load()) {
			return
		}
	}
	rl.rows = append(rl.rows, append(gsql.Tuple(nil), row...))
	rl.broadcast()
}

// evictOneLocked tries to drop rows[0]. It returns false when a
// PolicyBlock / PolicyDisconnect subscriber still needs that row and has
// stall budget left; expired PolicyDisconnect holders are force-removed.
func (rl *resultLog) evictOneLocked() bool {
	now := time.Now()
	blocked := false
	for s := range rl.subs {
		if s.removed || s.cursor > rl.base {
			continue
		}
		switch s.policy {
		case PolicyDropOldest:
			// Does not hold; it will observe the gap at its next fetch.
		case PolicyBlock:
			if s.stalled.IsZero() {
				s.stalled = now
			}
			blocked = true
		case PolicyDisconnect:
			if s.stalled.IsZero() {
				s.stalled = now
			}
			if now.Sub(s.stalled) >= s.budget {
				s.removed = true
				if rl.onDisconnect != nil {
					rl.onDisconnect()
				}
				continue
			}
			blocked = true
		}
	}
	if blocked {
		return false
	}
	// Evict: drop-oldest subscribers at or below base fall into a gap.
	for s := range rl.subs {
		if !s.removed && s.policy == PolicyDropOldest && s.cursor <= rl.base {
			if !s.shed {
				s.shed, s.shedFrom = true, s.cursor
			}
			if rl.onShed != nil {
				rl.onShed(1)
			}
		}
	}
	rl.rows = rl.rows[1:]
	rl.base++
	rl.broadcast()
	return true
}

// minBudgetLocked returns the shortest remaining stall budget among
// blocking PolicyDisconnect holders, or 0 when only PolicyBlock holders
// remain (wait without a deadline).
func (rl *resultLog) minBudgetLocked() time.Duration {
	now := time.Now()
	min := time.Duration(0)
	for s := range rl.subs {
		if s.removed || s.policy != PolicyDisconnect || s.cursor > rl.base {
			continue
		}
		rem := s.budget - now.Sub(s.stalled)
		if rem < time.Millisecond {
			rem = time.Millisecond
		}
		if min == 0 || rem < min {
			min = rem
		}
	}
	return min
}

// subscribe registers a puller starting at cursor (1-based; 0 means "from
// the oldest retained row"). Cursors in the future are allowed — the fetch
// waits until emission catches up, which is exactly what a resuming
// subscriber wants when it reconnects faster than the runtime rebuilds.
func (rl *resultLog) subscribe(cursor uint64, policy Policy, budget time.Duration) *subscriber {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if cursor == 0 {
		cursor = rl.base
	}
	s := &subscriber{policy: policy, budget: budget, cursor: cursor}
	rl.subs[s] = struct{}{}
	return s
}

// unsubscribe removes a puller and releases anything it was holding.
func (rl *resultLog) unsubscribe(s *subscriber) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if _, ok := rl.subs[s]; ok {
		delete(rl.subs, s)
		// The subscription's writer may be parked in fetch waiting for rows;
		// mark it removed so that fetch returns instead of waiting forever.
		s.removed = true
		rl.broadcast()
	}
}

// fetch blocks until rows are available at s.cursor (or the subscriber is
// removed / the log closes). It copies up to max rows WITHOUT advancing the
// cursor: the caller delivers them to the network first and then calls
// advance, so the un-advanced cursor is what holds rows for the blocking
// policies.
func (rl *resultLog) fetch(s *subscriber, max int) (rows []gsql.Tuple, start, gapFrom uint64, st fetchStatus) {
	rl.mu.Lock()
	for {
		switch {
		case s.removed:
			rl.mu.Unlock()
			return nil, 0, 0, fetchRemoved
		case rl.closed:
			rl.mu.Unlock()
			return nil, 0, 0, fetchClosed
		case s.shed:
			// Rows [shedFrom, base) were dropped behind this subscriber.
			gapFrom = s.shedFrom
			s.shed = false
			s.cursor = rl.base
			start = rl.base
			rl.mu.Unlock()
			return nil, start, gapFrom, fetchGap
		case s.cursor < rl.base:
			// Resuming below the retained window (e.g. reconnect after a
			// long absence): same shape as a shed gap.
			gapFrom = s.cursor
			s.cursor = rl.base
			rl.mu.Unlock()
			return nil, rl.base, gapFrom, fetchGap
		case s.cursor <= rl.endLocked():
			i := int(s.cursor - rl.base)
			n := len(rl.rows) - i
			if n > max {
				n = max
			}
			rows = make([]gsql.Tuple, n)
			copy(rows, rl.rows[i:i+n])
			start = s.cursor
			rl.mu.Unlock()
			return rows, start, 0, fetchRows
		}
		wake := rl.wake
		rl.mu.Unlock()
		<-wake
		rl.mu.Lock()
	}
}

// advance moves the cursor past delivered rows, releasing any hold.
func (rl *resultLog) advance(s *subscriber, n uint64) {
	rl.mu.Lock()
	s.cursor += n
	s.stalled = time.Time{}
	rl.broadcast()
	rl.mu.Unlock()
}

// freeze drops subsequent appends (incarnation teardown); thaw re-enables
// them (rebuild complete).
func (rl *resultLog) freeze() {
	rl.mu.Lock()
	rl.frozen = true
	rl.broadcast()
	rl.mu.Unlock()
}

func (rl *resultLog) thaw() {
	rl.mu.Lock()
	rl.frozen = false
	rl.mu.Unlock()
}

// truncateTo drops every row with cursor > k: those rows postdate the
// checkpoint being restored and will be re-emitted, bit-identically, by the
// WAL replay. Subscribers keep their cursors — one mid-stream at c > k
// simply waits for the replay to pass c again.
func (rl *resultLog) truncateTo(k uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if k+1 < rl.base {
		// The ring evicted past the checkpoint: nothing retained survives,
		// and the next replayed row is cursor k+1.
		rl.base, rl.rows = k+1, nil
	} else if k < rl.endLocked() {
		rl.rows = rl.rows[:k-rl.base+1]
	}
	rl.broadcast()
}

// restore replaces the ring contents with a checkpoint's window (cold
// start).
func (rl *resultLog) restore(base uint64, rows []gsql.Tuple) {
	rl.mu.Lock()
	rl.base = base
	rl.rows = rows
	rl.broadcast()
	rl.mu.Unlock()
}

// window returns the ring's bounds without copying it: base is the oldest
// retained cursor, end the highest assigned one (base-1 when empty).
func (rl *resultLog) window() (base, end uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.base, rl.endLocked()
}

// visit calls fn, under the ring lock, with the retained rows whose cursors
// lie in [from, to]; the caller takes both bounds from window and holds the
// locks that keep the ring from moving in between (checkpoint: s.mu and
// rt.mu). fn must not retain the slice.
func (rl *resultLog) visit(from, to uint64, fn func(rows []gsql.Tuple)) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	fn(rl.rows[from-rl.base : to+1-rl.base])
}

// close releases every waiter for service shutdown.
func (rl *resultLog) close() {
	rl.mu.Lock()
	rl.closed = true
	rl.broadcast()
	rl.mu.Unlock()
}
