package fault

import (
	"sync"

	"lotec/internal/ids"
	"lotec/internal/wire"
)

// dedupCap bounds the idempotency cache. At ~16K entries the cache spans
// far more in-flight RPCs than any run holds at once; old entries are
// evicted FIFO.
const dedupCap = 1 << 14

// Dedup is a server-side idempotency filter: requests carrying a
// wire.Idempotent request ID are executed once and their reply cached,
// so a retried or duplicated request replays the original reply instead
// of re-executing the handler. This is what makes GDO acquire/release
// and xfer fetch/push tolerate the at-least-once delivery the retry
// layer produces.
type Dedup struct {
	mu    sync.Mutex
	seen  map[dedupKey]*dedupEntry
	order []dedupKey // FIFO eviction ring
	next  int
}

type dedupKey struct {
	from ids.NodeID
	req  uint64
}

// dedupEntry parks concurrent duplicates while the first execution is in
// flight: done closes when reply is valid. Async handlers park reply
// callbacks in waiters instead of blocking.
type dedupEntry struct {
	done    chan struct{}
	reply   wire.Msg
	ready   bool             // guarded by Dedup.mu
	waiters []func(wire.Msg) // guarded by Dedup.mu
}

// NewDedup returns an empty filter.
func NewDedup() *Dedup {
	return &Dedup{seen: make(map[dedupKey]*dedupEntry)}
}

// Wrap decorates a transport handler with idempotent-replay semantics.
// Messages that are not Idempotent (or carry request ID 0 — never
// stamped, e.g. on the zero-fault path) pass through untouched. A
// duplicate arriving while the original is still executing blocks until
// the original's reply is available, then replays it.
func (d *Dedup) Wrap(h func(ids.NodeID, wire.Msg) wire.Msg) func(ids.NodeID, wire.Msg) wire.Msg {
	return func(from ids.NodeID, m wire.Msg) wire.Msg {
		im, ok := m.(wire.Idempotent)
		if !ok || im.RequestID() == 0 {
			return h(from, m)
		}
		key := dedupKey{from: from, req: im.RequestID()}
		d.mu.Lock()
		if e, hit := d.seen[key]; hit {
			d.mu.Unlock()
			<-e.done
			return e.reply
		}
		e := &dedupEntry{done: make(chan struct{})}
		d.insertLocked(key, e)
		d.mu.Unlock()

		reply := h(from, m)
		d.mu.Lock()
		e.reply = reply
		e.ready = true
		d.mu.Unlock()
		close(e.done)
		return reply
	}
}

// insertLocked adds an entry, evicting FIFO past dedupCap. Caller holds
// d.mu.
func (d *Dedup) insertLocked(key dedupKey, e *dedupEntry) {
	if len(d.order) < dedupCap {
		d.order = append(d.order, key)
	} else {
		delete(d.seen, d.order[d.next])
		d.order[d.next] = key
		d.next = (d.next + 1) % dedupCap
	}
	d.seen[key] = e
}

// WrapAsync decorates an asynchronous handler (one that replies through a
// callback, possibly after the handler itself returned) with the same
// idempotent-replay semantics as Wrap. Duplicates arriving while the first
// execution is still pending park their reply callbacks instead of
// blocking — handlers run on the transport's delivery context, which must
// never block.
func (d *Dedup) WrapAsync(h func(ids.NodeID, wire.Msg, func(wire.Msg))) func(ids.NodeID, wire.Msg, func(wire.Msg)) {
	return func(from ids.NodeID, m wire.Msg, reply func(wire.Msg)) {
		im, ok := m.(wire.Idempotent)
		if !ok || im.RequestID() == 0 {
			h(from, m, reply)
			return
		}
		key := dedupKey{from: from, req: im.RequestID()}
		d.mu.Lock()
		if e, hit := d.seen[key]; hit {
			if e.ready {
				d.mu.Unlock()
				reply(e.reply)
				return
			}
			e.waiters = append(e.waiters, reply)
			d.mu.Unlock()
			return
		}
		e := &dedupEntry{done: make(chan struct{})}
		d.insertLocked(key, e)
		d.mu.Unlock()

		h(from, m, func(resp wire.Msg) {
			d.mu.Lock()
			if e.ready { // handler double-reply; first wins
				d.mu.Unlock()
				return
			}
			e.reply = resp
			e.ready = true
			waiters := e.waiters
			e.waiters = nil
			d.mu.Unlock()
			close(e.done)
			reply(resp)
			for _, w := range waiters {
				w(resp)
			}
		})
	}
}

// Prime inserts a completed (request → reply) pair without executing
// anything. A backup applying a replicated op primes its cache with the
// computed reply keyed by the original client's identity, so after a
// promotion the client's retried request replays exactly the reply the
// dead primary would have sent — exactly-once across failover. An existing
// entry (the client's retry raced ahead) is left untouched.
func (d *Dedup) Prime(from ids.NodeID, reqID uint64, reply wire.Msg) {
	if reqID == 0 {
		return
	}
	key := dedupKey{from: from, req: reqID}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, hit := d.seen[key]; hit {
		return
	}
	done := make(chan struct{})
	close(done)
	d.insertLocked(key, &dedupEntry{done: done, reply: reply, ready: true})
}
