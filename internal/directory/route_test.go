package directory

import (
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// TestRouteTableCoLocated: a map with no hosts addresses each object's
// home data node, calls it directly without stamping an epoch, and needs
// no explicit sequencer release; a hosted map addresses shards alone.
func TestRouteTableCoLocated(t *testing.T) {
	const shards, nodes = 2, 4
	net := transport.NewSimNet(nodes, netmodel.Ethernet100.WithSoftwareCost(10*time.Microsecond), stats.NewRecorder())
	rt := NewRouteTable(net.Env(1), nil, InitialMap(shards, nodes, nil, false))
	place := NewPlacement(shards, nodes)
	for obj := ids.ObjectID(1); obj <= 8; obj++ {
		want := Dest{Home: place.HomeNode(obj), Shard: int32(place.ShardOf(obj))}
		if got := rt.Dest(obj); got != want {
			t.Errorf("Dest(%v) = %+v, want %+v", obj, got, want)
		}
	}
	if _, ok := rt.Sequencer(); ok {
		t.Error("co-located layout must not address the sequencer explicitly")
	}

	obj := ids.ObjectID(6) // home node 3, shard 0
	var got *wire.AcquireReq
	net.SetHandler(3, func(_ ids.NodeID, m wire.Msg) wire.Msg {
		got, _ = m.(*wire.AcquireReq)
		return &wire.AcquireResp{}
	})
	net.Env(1).Go(func() {
		if _, err := rt.Call(rt.Dest(obj), &wire.AcquireReq{Obj: obj}); err != nil {
			t.Errorf("call: %v", err)
		}
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Obj != obj || got.Epoch != 0 {
		t.Errorf("home node 3 received %+v, want the unstamped acquire of %v", got, obj)
	}

	hosted := NewRouteTable(net.Env(1), nil, InitialMap(shards, nodes, []ids.NodeID{5}, false))
	if d := hosted.Dest(obj); d != (Dest{Home: ids.NoNode, Shard: 0}) {
		t.Errorf("hosted Dest(%v) = %+v, want shard 0 with no home", obj, d)
	}
	if d, ok := hosted.Sequencer(); !ok || d != hosted.Dest(obj) {
		t.Errorf("hosted Sequencer = %+v, %v; want shard 0, true", d, ok)
	}
}
