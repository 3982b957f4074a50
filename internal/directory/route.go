// Client-side routing to the directory, in every layout.
//
// A RouteTable is one actor's view of the placement map plus the retry
// discipline around it. Dest names where an object's directory requests
// go; Call delivers one. In the co-located layout (a map whose shards have
// no host) each shard's partition lives on the data nodes and Call goes
// straight to the object's home node. With control-plane hosts, Call
// stamps the current epoch into the request, calls the shard's primary,
// and reacts to the two ways the cluster corrects a stale view — a
// RouteResp carrying a newer map (adopt and retry) and an unreachable
// primary (ask the shard's backup to promote itself, adopt the
// post-promotion map, and retry). Requests are never dropped on a route
// change; they are re-aimed until a current primary accepts them.

package directory

import (
	"errors"
	"sync"
	"time"

	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// ErrNoRoute is returned when a call exhausts its re-route budget without
// reaching a current primary (in practice: more than a single failure, or
// a partition outlasting every retry).
var ErrNoRoute = errors.New("directory: no route to shard primary")

// routeAttempts bounds the adopt-and-retry loop. Each map adoption makes
// progress (epochs only grow), so the bound is only hit when the cluster
// is genuinely unavailable.
const routeAttempts = 64

// routeBackoff spaces retries that did not learn a newer map, so a client
// waiting out a transient ownership gap (e.g. a handoff ratification in
// flight) does not hot-loop on RouteResp exchanges.
const routeBackoff = 200 * time.Microsecond

// Dest addresses one object's directory requests. Requests with equal
// Dests may share a batch.
type Dest struct {
	// Home is the data node serving the shard's partition in the
	// co-located layout (Placement.HomeNode), or ids.NoNode when a
	// control-plane host serves the shard.
	Home  ids.NodeID
	Shard int32
}

// RouteTable is safe for concurrent use by every proc of one node.
type RouteTable struct {
	env transport.Env
	rec *stats.Recorder
	// The layout is fixed at construction: an object's shard and home
	// never move, only which host is a shard's primary.
	place  Placement
	hosted bool

	mu  sync.Mutex
	cur wire.PlacementMap
}

// NewRouteTable returns a table starting from the given map: the
// co-located layout when its shard 0 has no primary (InitialMap with no
// hosts), else the hosted one. rec may be nil; when set, client-observed
// failovers are recorded into it.
func NewRouteTable(env transport.Env, rec *stats.Recorder, initial wire.PlacementMap) *RouteTable {
	return &RouteTable{
		env:    env,
		rec:    rec,
		place:  NewPlacement(initial.NumShards(), int(initial.Nodes)),
		hosted: initial.NumShards() > 0 && initial.Primary[0] != ids.NoNode,
		cur:    initial.Clone(),
	}
}

// Dest returns where obj's directory requests go. It takes no lock.
//
//lotec:noalloc
func (r *RouteTable) Dest(obj ids.ObjectID) Dest {
	d := Dest{Home: ids.NoNode, Shard: int32(r.place.ShardOf(obj))}
	if !r.hosted {
		d.Home = r.place.HomeNode(obj)
	}
	return d
}

// Sequencer returns the Dest of shard 0, the global commit sequencer, and
// whether a commit must address it even when it releases no shard-0
// object. Only hosted shards need that: co-located partitions share one
// Sharded router, which sequences every commit itself.
func (r *RouteTable) Sequencer() (Dest, bool) {
	return Dest{Home: ids.NoNode, Shard: 0}, r.hosted
}

// Epoch returns the currently adopted map epoch.
func (r *RouteTable) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Epoch
}

// Map returns a copy of the currently adopted map.
func (r *RouteTable) Map() wire.PlacementMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Clone()
}

// Adopt installs m if it is strictly newer than the current map and
// reports whether it was.
func (r *RouteTable) Adopt(m wire.PlacementMap) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.cur.Epoch {
		return false
	}
	r.cur = m.Clone()
	return true
}

// view snapshots the routing decision for one attempt.
func (r *RouteTable) view(shard int) (primary, backup ids.NodeID, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= r.cur.NumShards() {
		return ids.NoNode, ids.NoNode, r.cur.Epoch
	}
	return r.cur.Primary[shard], r.cur.Backup[shard], r.cur.Epoch
}

// Send delivers m to d without waiting for a reply, for handlers that
// must not block: a one-way message to the home node when co-located;
// with hosts, a Call on its own proc, since the adopt-and-retry loop
// blocks.
func (r *RouteTable) Send(d Dest, m wire.Msg) {
	if !r.hosted {
		_ = r.env.Send(d.Home, m)
		return
	}
	r.env.Go(func() { _, _ = r.Call(d, m) })
}

// Call sends m to d and returns the reply. It must be called from a proc
// (it blocks). Co-located, it calls d.Home once. With hosts, it stamps the
// adopted epoch, calls the current primary of d.Shard, and follows route
// corrections until a primary answers; the reply is never a RouteResp.
func (r *RouteTable) Call(d Dest, m wire.Msg) (wire.Msg, error) {
	if !r.hosted {
		return r.env.Call(d.Home, m)
	}
	for attempt := 0; attempt < routeAttempts; attempt++ {
		primary, backup, epoch := r.view(int(d.Shard))
		if primary == ids.NoNode {
			return nil, ErrNoRoute
		}
		stampEpoch(m, epoch)
		t0 := r.env.Now()
		reply, err := r.env.Call(primary, m)
		if err != nil {
			// The primary stopped answering. Ask the backup to promote
			// itself; its reply is the authoritative post-promotion map
			// (or just the current one, if someone else already promoted).
			if backup == ids.NoNode || backup == primary {
				return nil, err
			}
			preply, perr := r.env.Call(backup, &wire.PromoteReq{Dead: primary, Epoch: epoch})
			if perr != nil {
				return nil, err // both replicas gone: out of failure budget
			}
			if pr, ok := preply.(*wire.PromoteResp); ok {
				if r.Adopt(pr.Map) && r.rec != nil {
					r.rec.AddFailover(stats.FailoverSample{Latency: r.env.Now() - t0})
				}
			}
			continue
		}
		if rr, ok := reply.(*wire.RouteResp); ok {
			// A redirect terminates this logical request: the op was
			// rejected at the front door (not applied anywhere), and the
			// host's idempotency cache now holds this RouteResp against the
			// request's current ID. Clear the ID so the re-aimed attempt is
			// a fresh request instead of a replay of the redirect. (The
			// timeout path above must NOT clear it: a promoted backup
			// answers the replayed request from an entry primed under the
			// original ID.)
			if im, ok := m.(wire.Idempotent); ok {
				im.SetRequestID(0)
			}
			if !r.Adopt(rr.Map) {
				// Same or older map: ownership is in transition (seal,
				// ratification, a peer that has not yet adopted the epoch
				// we hold). Back off briefly instead of spinning.
				r.env.Sleep(routeBackoff)
			}
			continue
		}
		return reply, nil
	}
	return nil, ErrNoRoute
}
