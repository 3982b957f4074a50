package node

import (
	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
	"lotec/internal/xfer"
)

// Handle is the node's inbound message dispatcher; wire it as the Env's
// transport handler. It never blocks.
func (e *Engine) Handle(from ids.NodeID, m wire.Msg) wire.Msg {
	switch t := m.(type) {
	case *wire.Grant:
		e.handleGrant(t)
		return nil
	case *wire.Abort:
		e.handleAbort(t)
		return nil
	case *wire.FetchReq:
		return e.handleFetch(t)
	case *wire.PushReq:
		return e.handlePush(t)
	case *wire.MultiFetchReq:
		return xfer.ServeFetch(e.cfg.Store, e.cfg.Rec, t)
	case *wire.MultiPushReq:
		return xfer.ApplyPush(e.cfg.Store, e.cfg.Rec, t)
	case *wire.AcquireReq, *wire.ReleaseReq, *wire.CopySetReq, *wire.RegisterReq:
		// The co-located layout: this site serves its directory partitions.
		if e.cfg.Dir == nil {
			return &wire.ErrResp{Msg: "node: not a GDO host"}
		}
		reply, events := directory.Serve(e.cfg.Dir, m)
		directory.Notify(e.env, events)
		return reply
	default:
		return &wire.ErrResp{Msg: "node: unhandled message type"}
	}
}

// handleGrant processes a deferred lock grant: create (or upgrade) the
// family's cached entry, turn the granted request batch into local waiters,
// and wake the eligible ones — the site-side half of Alg 4.4's hand-off.
func (e *Engine) handleGrant(g *wire.Grant) {
	e.mu.Lock()
	fam := e.fams[g.Family]
	if fam == nil || fam.doomed != nil {
		// The family is gone (aborted while queued): hand the lock straight
		// back so no one waits on a ghost holder.
		e.mu.Unlock()
		rel := &wire.ReleaseReq{
			Family: g.Family,
			Site:   e.self,
			Shard:  g.Shard,
			Rels:   []gdo.ObjectRelease{{Obj: g.Obj}},
		}
		if e.cfg.Route != nil {
			// Handlers must not block; the routed hand-back needs its own
			// proc for the adopt-and-retry loop.
			e.env.Go(func() { _, _ = e.cfg.Route.Call(int(g.Shard), rel) })
		} else {
			_ = e.env.Send(e.cfg.HomeFn(g.Obj), rel)
		}
		return
	}
	entry := fam.entries[g.Obj]
	if entry == nil {
		entry = o2pl.NewEntry(g.Obj, g.Family, g.Mode)
		fam.entries[g.Obj] = entry
		fam.meta[g.Obj] = &entryMeta{pageMap: g.PageMap, lastWriter: g.LastWriter}
	} else {
		entry.SetGlobalMode(g.Mode)
		if meta := fam.meta[g.Obj]; meta != nil && len(g.PageMap) > 0 {
			meta.pageMap = g.PageMap
			meta.lastWriter = g.LastWriter
		} else if meta == nil {
			fam.meta[g.Obj] = &entryMeta{pageMap: g.PageMap, lastWriter: g.LastWriter}
		}
	}
	for _, req := range g.Reqs {
		key := pendKey{obj: g.Obj, tx: req.Ref.Tx}
		p, ok := e.pending[key]
		if !ok {
			// The requester vanished (aborted); the family still holds the
			// lock and root release will free it.
			continue
		}
		delete(e.pending, key)
		entry.Enqueue(&o2pl.Waiter{Tx: p.tx, Mode: req.Mode, Data: p.fut})
	}
	granted := entry.GrantEligible()
	e.mu.Unlock()
	completeAll(granted, nil)
}

// handleAbort fails this site's parked requests for a deadlock-victim
// family and condemns the family.
func (e *Engine) handleAbort(a *wire.Abort) {
	e.mu.Lock()
	var futs []transport.Future
	for _, req := range a.Reqs {
		key := pendKey{obj: a.Obj, tx: req.Ref.Tx}
		if p, ok := e.pending[key]; ok {
			delete(e.pending, key)
			futs = append(futs, p.fut)
		}
	}
	if fam := e.fams[a.Family]; fam != nil && fam.doomed == nil {
		fam.doomed = ErrDeadlockVictim
	}
	e.mu.Unlock()
	for _, f := range futs {
		f.Complete(nil, ErrDeadlockVictim)
	}
}

// handleFetch serves legacy single-object Alg 4.5 gather requests (older
// peers over TCP) through the same xfer serving path as the batched form.
func (e *Engine) handleFetch(req *wire.FetchReq) wire.Msg {
	reply := xfer.ServeFetch(e.cfg.Store, e.cfg.Rec, &wire.MultiFetchReq{
		Demand: req.Demand,
		Objs:   []wire.ObjPages{{Obj: req.Obj, Pages: req.Pages}},
	})
	resp, ok := reply.(*wire.MultiFetchResp)
	if !ok {
		return reply // ErrResp
	}
	out := &wire.FetchResp{Obj: req.Obj}
	if len(resp.Objs) == 1 {
		out.Pages = resp.Objs[0].Pages
	}
	return out
}

// handlePush installs legacy single-object RC pushes through the batched
// apply path.
func (e *Engine) handlePush(req *wire.PushReq) wire.Msg {
	return xfer.ApplyPush(e.cfg.Store, e.cfg.Rec, &wire.MultiPushReq{
		Objs: []wire.ObjPayload{{Obj: req.Obj, Pages: req.Pages}},
	})
}
