package directory

import (
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// Serve answers one directory client request from svc: it turns the wire
// request into the Service call and the call's result into the wire
// reply. The deferred decisions the call produced (grants handed to queued
// families, deadlock aborts) come back as events for Notify. A request the
// directory rejects is answered with an ErrResp and yields no events.
//
// Every directory server speaks through Serve: the in-engine directory of
// the co-located layout, and every shard replica of a Host (which layers
// ownership, deadlock victims and replication on top).
func Serve(svc Service, m wire.Msg) (wire.Msg, []gdo.Event) {
	switch t := m.(type) {
	case *wire.AcquireReq:
		res, events, err := svc.Acquire(t.Obj, t.Ref, t.Family, t.Age, t.Site, t.Mode)
		if err != nil {
			return &wire.ErrResp{Msg: err.Error()}, nil
		}
		return &wire.AcquireResp{
			Obj:        t.Obj,
			Status:     res.Status,
			Mode:       res.Mode,
			NumPages:   int32(res.NumPages),
			LastWriter: res.LastWriter,
			Shard:      t.Shard,
			PageMap:    res.PageMap,
		}, events
	case *wire.ReleaseReq:
		events, stamps, err := svc.Release(t.Family, t.Site, t.Commit, t.Rels)
		if err != nil {
			return &wire.ErrResp{Msg: err.Error()}, nil
		}
		return &wire.ReleaseResp{Shard: t.Shard, Stamps: stamps}, events
	case *wire.CommitSeqReq:
		return &wire.CommitSeqResp{Seq: svc.AssignCommitSeq(t.Family)}, nil
	case *wire.CopySetReq:
		return copySets(t, svc.CopySet), nil
	case *wire.RegisterReq:
		if err := svc.Register(t.Obj, int(t.NumPages), t.Owner); err != nil {
			return &wire.ErrResp{Msg: err.Error()}, nil
		}
		return &wire.RegisterResp{}, nil
	default:
		return &wire.ErrResp{Msg: "directory: unhandled message type"}, nil
	}
}

// copySets answers a batched copy-set lookup, one lookup per object.
func copySets(req *wire.CopySetReq, lookup func(ids.ObjectID) ([]ids.NodeID, error)) wire.Msg {
	sets := make([]wire.CopySet, 0, len(req.Objs))
	for _, obj := range req.Objs {
		sites, err := lookup(obj)
		if err != nil {
			return &wire.ErrResp{Msg: err.Error()}
		}
		sets = append(sets, wire.CopySet{Obj: obj, Sites: sites})
	}
	return &wire.CopySetResp{Sets: sets}
}

// Notify ships deferred directory decisions to the affected sites: "Send
// the list pointed to by HolderPtr and the page map to the new holder's
// site" (Alg 4.4) as a Grant, and deadlock-victim notifications as an
// Abort.
func Notify(env transport.Env, events []gdo.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case gdo.EventGrant:
			_ = env.Send(ev.Site, &wire.Grant{
				Obj:        ev.Obj,
				Family:     ev.Family,
				Mode:       ev.Mode,
				Upgrade:    ev.Upgrade,
				NumPages:   int32(ev.NumPages),
				LastWriter: ev.LastWriter,
				Shard:      ev.Shard,
				Reqs:       ev.Reqs,
				PageMap:    ev.PageMap,
			})
		case gdo.EventDeadlockAbort:
			_ = env.Send(ev.Site, &wire.Abort{
				Obj:    ev.Obj,
				Family: ev.Family,
				Shard:  ev.Shard,
				Reqs:   ev.Reqs,
			})
		}
	}
}
