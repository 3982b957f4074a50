package directory

import (
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/wire"
)

// TestServeTranslatesRequests drives every directory request type through
// Serve against a 2-shard router: replies carry the call's results and the
// request's shard, a queued writer's grant comes back as an event of the
// release that frees the object, and rejected requests become ErrResps
// with no events.
func TestServeTranslatesRequests(t *testing.T) {
	svc := NewSharded(2, 2)
	serve := func(m wire.Msg) (wire.Msg, []gdo.Event) {
		t.Helper()
		reply, events := Serve(svc, m)
		if er, ok := reply.(*wire.ErrResp); ok {
			t.Fatalf("%T: %s", m, er.Msg)
		}
		return reply, events
	}
	if reply, _ := serve(&wire.RegisterReq{Obj: 3, NumPages: 2, Owner: 2}); reply.Type() != wire.TRegisterResp {
		t.Fatalf("register reply %T", reply)
	}

	reply, events := serve(&wire.AcquireReq{Obj: 3, Ref: ref(10, 1), Family: 10, Age: 10, Site: 1, Mode: o2pl.Write, Shard: 1})
	acq := reply.(*wire.AcquireResp)
	if acq.Status != gdo.GrantedNow || acq.Mode != o2pl.Write || acq.NumPages != 2 || acq.Shard != 1 || len(acq.PageMap) != 2 || len(events) != 0 {
		t.Fatalf("first acquire = %+v, events %v", acq, events)
	}
	reply, _ = serve(&wire.AcquireReq{Obj: 3, Ref: ref(20, 2), Family: 20, Age: 20, Site: 2, Mode: o2pl.Write, Shard: 1})
	if st := reply.(*wire.AcquireResp).Status; st != gdo.Queued {
		t.Fatalf("second acquire status %v, want queued", st)
	}

	reply, _ = serve(&wire.CommitSeqReq{Family: 10})
	if seq := reply.(*wire.CommitSeqResp).Seq; seq != 1 {
		t.Errorf("commit seq %d, want 1", seq)
	}
	reply, events = serve(&wire.ReleaseReq{Family: 10, Site: 1, Commit: true, Shard: 1,
		Rels: []gdo.ObjectRelease{{Obj: 3, Dirty: []ids.PageNum{1}}}})
	rel := reply.(*wire.ReleaseResp)
	if rel.Shard != 1 || len(rel.Stamps) != 1 || rel.Stamps[0].Page != 1 {
		t.Errorf("release reply %+v", rel)
	}
	if len(events) != 1 || events[0].Kind != gdo.EventGrant || events[0].Family != 20 || events[0].Site != 2 || events[0].Shard != 1 {
		t.Errorf("release events %+v, want one grant to family 20 at site 2 on shard 1", events)
	}

	reply, _ = serve(&wire.CopySetReq{Objs: []ids.ObjectID{3}})
	if sets := reply.(*wire.CopySetResp).Sets; len(sets) != 1 || sets[0].Obj != 3 || len(sets[0].Sites) == 0 {
		t.Errorf("copy sets %+v", sets)
	}

	for _, m := range []wire.Msg{
		&wire.AcquireReq{Obj: 99, Family: 30, Site: 1, Mode: o2pl.Read},
		&wire.ReleaseReq{Family: 30, Site: 1, Rels: []gdo.ObjectRelease{{Obj: 3}}},
		&wire.CopySetReq{Objs: []ids.ObjectID{3, 99}},
		&wire.RegisterReq{Obj: 3, NumPages: 2, Owner: 2},
		&wire.Grant{},
	} {
		reply, events := Serve(svc, m)
		if _, ok := reply.(*wire.ErrResp); !ok || len(events) != 0 {
			t.Errorf("%T: reply %T with %d events, want an ErrResp and none", m, reply, len(events))
		}
	}
}
