// Package directory implements the *partitioned* Global Directory of
// Objects the paper describes in §4.1 ("the GDO may be partitioned and
// replicated for scalability and reliability"). Package gdo keeps one
// object's worth of directory logic — Figure 1 entries, Algorithm 4.2
// acquisition and Algorithm 4.4 release — in a single structure guarded by
// a single mutex; this package scales it out: a Sharded directory is N
// independent gdo.Directory instances, each owning the lock state and page
// map of the objects that home to it, fronted by a thin router that
// preserves the gdo.Directory-shaped API so the node engine, the
// simulation, and the TCP deployment switch over without protocol changes.
//
// Three concerns span shards and live in the router:
//
//   - Placement: deterministic object→shard assignment (ShardOf), kept
//     consistent with the cost model's object→home-node assignment
//     (HomeNode) so the simulation charges global lock traffic to the same
//     partition the deployment would consult.
//   - Commit order: strict nested O2PL serializes committed families in
//     release-arrival order. Shard 0 is the only sequencer: a family's
//     first committing release fixes its position in shard 0's order,
//     whichever shard the release is for.
//   - Inter-family deadlock detection across shards: each shard detects
//     cycles among its own waiters exactly as before, and additionally
//     exports a waits-for edge summary (gdo.WaitEdges); the router unions
//     the summaries and searches the combined graph, so a cycle whose
//     edges straddle shards is still found and the youngest family on it
//     is still the victim. See detect.go.
//
// With one shard the router degenerates to pure delegation: no extra
// locking, no cross-shard passes, byte-identical behaviour to the single
// gdo.Directory it wraps.
package directory

import (
	"fmt"
	"sort"
	"strings"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// Service is the directory API the rest of the system programs against —
// exactly the shape of *gdo.Directory, which satisfies it, as does
// *Sharded. Serve answers wire requests from any Service, so the
// in-engine directory and every Host shard pick their partitioning by
// construction, not by code changes.
type Service interface {
	Register(obj ids.ObjectID, numPages int, owner ids.NodeID) error
	NumPages(obj ids.ObjectID) (int, error)
	Objects() []ids.ObjectID
	State(obj ids.ObjectID) (gdo.LockState, error)
	ReadCount(obj ids.ObjectID) (int, error)
	PageMap(obj ids.ObjectID) ([]gdo.PageLoc, error)
	CopySet(obj ids.ObjectID) ([]ids.NodeID, error)
	CommitSeq(f ids.FamilyID) (uint64, bool)
	LastWriter(obj ids.ObjectID) (ids.NodeID, error)
	Acquire(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error)
	Release(family ids.FamilyID, site ids.NodeID, commit bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, error)
	CancelRequest(obj ids.ObjectID, family ids.FamilyID) (bool, error)
	DebugDump() string
}

// Compile-time checks: the single directory and the sharded router expose
// the same service.
var (
	_ Service = (*gdo.Directory)(nil)
	_ Service = (*Sharded)(nil)
)

// Placement is the deterministic object→partition assignment shared by
// every process of a deployment. Shards is the number of directory
// partitions; Nodes is the cluster size the cost model attributes global
// messages to.
type Placement struct {
	Shards int
	Nodes  int
}

// NewPlacement normalizes a placement (both counts at least 1).
func NewPlacement(shards, nodes int) Placement {
	if shards < 1 {
		shards = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	return Placement{Shards: shards, Nodes: nodes}
}

// ShardOf returns the directory partition owning obj's lock state and page
// map. It extends the cost model's HomeNode hashing: when Shards == Nodes
// the objects homed at one node form exactly one shard, so the cost model
// and the real partitioning agree.
//
//lotec:noalloc
func (p Placement) ShardOf(obj ids.ObjectID) int {
	s := int(int64(obj) % int64(p.Shards))
	if s < 0 {
		s += p.Shards
	}
	return s
}

// HomeNode returns the node global lock messages for obj are charged to —
// unchanged from gdo.Directory.HomeNode, so per-object message attribution
// (Figures 6–8 re-pricing) is identical at every shard count.
//
//lotec:noalloc
func (p Placement) HomeNode(obj ids.ObjectID) ids.NodeID {
	h := int64(obj) % int64(p.Nodes)
	if h < 0 {
		h += int64(p.Nodes)
	}
	return ids.NodeID(h) + 1
}

// Sharded is the partitioned Global Directory of Objects: a router over
// Placement.Shards independent gdo.Directory partitions. Acquires and
// releases on objects of different shards never contend on a shared mutex;
// the router itself holds no state beyond its partitions. It is safe for
// concurrent use.
type Sharded struct {
	place  Placement
	shards []*gdo.Directory
}

// NewSharded returns an empty sharded directory with the given number of
// partitions for a cluster of nodes sites.
func NewSharded(shards, nodes int) *Sharded {
	p := NewPlacement(shards, nodes)
	s := &Sharded{place: p, shards: make([]*gdo.Directory, p.Shards)}
	for i := range s.shards {
		s.shards[i] = gdo.New(p.Nodes)
	}
	return s
}

// The accessors below sit on every acquire/release route; none may
// allocate.
//
//lotec:noalloc
func (s *Sharded) Placement() Placement { return s.place }

// NumShards returns the partition count.
//
//lotec:noalloc
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the partition owning obj.
//
//lotec:noalloc
func (s *Sharded) ShardOf(obj ids.ObjectID) int { return s.place.ShardOf(obj) }

// Shard exposes one partition (tests and diagnostics).
//
//lotec:noalloc
func (s *Sharded) Shard(i int) *gdo.Directory { return s.shards[i] }

// shardFor routes an object to its partition.
//
//lotec:noalloc
func (s *Sharded) shardFor(obj ids.ObjectID) *gdo.Directory {
	return s.shards[s.place.ShardOf(obj)]
}

// stamp tags events with the shard they originated from.
//
//lotec:noalloc
func stamp(shard int, events []gdo.Event) []gdo.Event {
	for i := range events {
		events[i].Shard = int32(shard)
	}
	return events
}

// Register adds an object to its home shard.
func (s *Sharded) Register(obj ids.ObjectID, numPages int, owner ids.NodeID) error {
	return s.shardFor(obj).Register(obj, numPages, owner)
}

// NumPages returns the registered extent of obj.
func (s *Sharded) NumPages(obj ids.ObjectID) (int, error) {
	return s.shardFor(obj).NumPages(obj)
}

// Objects returns all registered objects across every shard, ascending.
func (s *Sharded) Objects() []ids.ObjectID {
	if len(s.shards) == 1 {
		return s.shards[0].Objects()
	}
	var out []ids.ObjectID
	for _, sh := range s.shards {
		out = append(out, sh.Objects()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the global lock state of obj.
func (s *Sharded) State(obj ids.ObjectID) (gdo.LockState, error) {
	return s.shardFor(obj).State(obj)
}

// ReadCount returns the number of reader families holding obj.
func (s *Sharded) ReadCount(obj ids.ObjectID) (int, error) {
	return s.shardFor(obj).ReadCount(obj)
}

// PageMap returns a copy of obj's page map.
func (s *Sharded) PageMap(obj ids.ObjectID) ([]gdo.PageLoc, error) {
	return s.shardFor(obj).PageMap(obj)
}

// CopySet returns the sites known to cache pages of obj.
func (s *Sharded) CopySet(obj ids.ObjectID) ([]ids.NodeID, error) {
	return s.shardFor(obj).CopySet(obj)
}

// LastWriter returns the site of obj's most recent committing update.
func (s *Sharded) LastWriter(obj ids.ObjectID) (ids.NodeID, error) {
	return s.shardFor(obj).LastWriter(obj)
}

// CommitSeq returns the family's position in the *global* commit order (1
// is first): shard 0's order, which every committing release feeds (see
// Release).
func (s *Sharded) CommitSeq(f ids.FamilyID) (uint64, bool) {
	return s.shards[0].CommitSeq(f)
}

// CancelRequest withdraws family's queued requests and pending upgrades on
// obj.
func (s *Sharded) CancelRequest(obj ids.ObjectID, family ids.FamilyID) (bool, error) {
	return s.shardFor(obj).CancelRequest(obj, family)
}

// Acquire routes Algorithm 4.2 to obj's shard. The shard performs its own
// intra-shard deadlock detection exactly as the single directory does;
// when the request parks and more than one shard exists, the router
// additionally searches the union waits-for graph for cycles whose edges
// straddle shards (see detect.go).
func (s *Sharded) Acquire(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error) {
	shard := s.place.ShardOf(obj)
	res, events, err := s.shards[shard].Acquire(obj, ref, family, age, site, mode)
	if err != nil {
		return res, nil, err
	}
	events = stamp(shard, events)
	if len(s.shards) > 1 && res.Status == gdo.Queued {
		if victim, cycle := findVictimFrom(s.shards, family); cycle {
			if victim == family {
				// Mirror the single directory's self-victim path: drop the
				// family's parked requests everywhere, silently — the
				// synchronous DeadlockAbort reply is the notification.
				for _, sh := range s.shards {
					sh.PurgeFamily(family)
				}
				return gdo.AcquireResult{Status: gdo.DeadlockAbort}, events, nil
			}
			events = append(events, s.abortVictim(victim)...)
		}
	}
	return res, events, nil
}

// Release routes Algorithm 4.4: the batch is split by shard and each shard
// releases, restamps and re-schedules its own objects. A committing
// release first fixes the family's place in shard 0's commit order, even
// when the batch holds no shard-0 object. After the per-shard releases,
// re-pointed waiters may close inter-shard cycles the shard-local re-checks
// cannot see, so with multiple shards the router sweeps the union waits-for
// graph until it is acyclic.
func (s *Sharded) Release(family ids.FamilyID, site ids.NodeID, commit bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, error) {
	if len(s.shards) == 1 {
		events, stamps, err := s.shards[0].Release(family, site, commit, rels)
		return stamp(0, events), stamps, err
	}
	if commit {
		s.shards[0].AssignCommitSeq(family)
	}

	// Fast path: batches addressed to a single partition (the node engine
	// already sends one ReleaseReq per (home, shard)) skip the grouping
	// allocation.
	if sh, ok := singleShardOf(s.place, rels); ok {
		events, stamps, err := s.shards[sh].Release(family, site, commit, rels)
		if err != nil {
			return nil, nil, err
		}
		events = stamp(sh, events)
		events = append(events, s.sweep()...)
		return events, stamps, nil
	}

	byShard := make(map[int][]gdo.ObjectRelease)
	for _, rel := range rels {
		sh := s.place.ShardOf(rel.Obj)
		byShard[sh] = append(byShard[sh], rel)
	}
	var events []gdo.Event
	var stamps []gdo.PageStamp
	for sh := 0; sh < len(s.shards); sh++ {
		part, ok := byShard[sh]
		if !ok {
			continue
		}
		ev, st, err := s.shards[sh].Release(family, site, commit, part)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, stamp(sh, ev)...)
		stamps = append(stamps, st...)
	}
	events = append(events, s.sweep()...)
	return events, stamps, nil
}

// singleShardOf reports whether every release in the batch homes to one
// partition, and which.
//
//lotec:noalloc
func singleShardOf(p Placement, rels []gdo.ObjectRelease) (int, bool) {
	if len(rels) == 0 {
		return 0, false
	}
	sh := p.ShardOf(rels[0].Obj)
	for _, rel := range rels[1:] {
		if p.ShardOf(rel.Obj) != sh {
			return 0, false
		}
	}
	return sh, true
}

// DebugDump renders every shard's lock state.
func (s *Sharded) DebugDump() string {
	if len(s.shards) == 1 {
		return s.shards[0].DebugDump()
	}
	var b strings.Builder
	for i, sh := range s.shards {
		d := sh.DebugDump()
		if d == "" {
			continue
		}
		fmt.Fprintf(&b, "shard %d:\n%s", i, d)
	}
	return b.String()
}
