package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/o2pl"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// TestGDORedirectsStaleEpoch sends directory requests stamped with an
// epoch other than the GDO's straight to it: each is answered with a
// RouteResp carrying the deployment's current map, not applied and not
// failed. A request type the GDO does not serve fails loudly.
func TestGDORedirectsStaleEpoch(t *testing.T) {
	addrs := freeAddrs(t, 2)
	topo := Topology{NodeAddrs: addrs[:1], GDOAddr: addrs[1], DirectoryShards: 2}
	g := NewGDOServer(topo)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	cli := NewTCPNet(1, topo.addrMap())
	t.Cleanup(func() { _ = cli.Close() })

	want := topo.InitialMap()
	for _, epoch := range []uint64{want.Epoch - 1, want.Epoch + 1} {
		for _, req := range []wire.Msg{
			&wire.AcquireReq{Obj: 1, Family: 1, Site: 1, Mode: o2pl.Write, Shard: 1, Epoch: epoch},
			&wire.ReleaseReq{Family: 1, Site: 1, Commit: true, Epoch: epoch},
		} {
			reply, err := cli.Call(topo.GDONode(), req)
			if err != nil {
				t.Fatalf("epoch %d %T: %v", epoch, req, err)
			}
			rr, ok := reply.(*wire.RouteResp)
			if !ok {
				t.Fatalf("epoch %d %T: reply %T, want *wire.RouteResp", epoch, req, reply)
			}
			if !rr.Map.Equal(want) {
				t.Errorf("epoch %d %T: map %+v, want %+v", epoch, req, rr.Map, want)
			}
		}
	}
	if _, err := cli.Call(topo.GDONode(), &wire.MultiFetchReq{}); err == nil || !strings.Contains(err.Error(), "does not serve") {
		t.Errorf("unserved request: err = %v", err)
	}
}

// TestTCPShardedDeadlocksResolve runs opposed transfers between objects on
// different directory shards of one GDO, so families deadlock across
// shards. The GDO's host detects those cycles over the union of its
// shards' waits-for graphs, every root commits after its victim retries,
// and the directory drains. The trace holds no commit-sequence messages.
func TestTCPShardedDeadlocksResolve(t *testing.T) {
	const nodes, objects = 2, 4
	addrs := freeAddrs(t, nodes+1)
	topo := Topology{NodeAddrs: addrs[:nodes], GDOAddr: addrs[nodes], DirectoryShards: 4}
	g := NewGDOServer(topo)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })

	cls, err := schema.NewClassBuilder(1, "Account").
		Attr("balance", 8).
		Method(schema.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "transfer", Writes: []string{"balance"}, Invokes: []ids.ClassID{1}}).
		Method(schema.MethodSpec{Name: "peek", Reads: []string{"balance"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	add := func(ctx *node.Ctx, delta int64) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		return ctx.Write("balance", i64(dec64(cur)+delta))
	}
	rec := stats.NewRecorder()
	servers := make([]*NodeServer, 0, nodes)
	for i := 1; i <= nodes; i++ {
		ns, err := NewNodeServer(NodeConfig{Topology: topo, Self: ids.NodeID(i), PageSize: 256, Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.AddClass(cls); err != nil {
			t.Fatal(err)
		}
		for name, fn := range map[string]node.MethodFunc{
			"deposit": func(ctx *node.Ctx) error { return add(ctx, dec64(ctx.Arg())) },
			// transfer moves one unit from this object to the object named
			// by the argument. It holds its own write lock while it waits
			// for the target's, so opposed transfers deadlock.
			"transfer": func(ctx *node.Ctx) error {
				if err := add(ctx, -1); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
				_, err := ctx.Invoke(ids.ObjectID(dec64(ctx.Arg())), "deposit", i64(1))
				return err
			},
			"peek": func(ctx *node.Ctx) error {
				cur, err := ctx.Read("balance")
				ctx.SetResult(cur)
				return err
			},
		} {
			if err := ns.OnMethod(cls, name, fn); err != nil {
				t.Fatal(err)
			}
		}
		if err := ns.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ns.Close() })
		servers = append(servers, ns)
	}
	// Objects 1..4 land on shards 1, 2, 3 and 0.
	for obj := ids.ObjectID(1); obj <= objects; obj++ {
		createObject(t, servers, obj, ids.NodeID(int(obj)%nodes+1))
	}

	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, 2*objects*rounds)
	for a := ids.ObjectID(1); a <= objects; a++ {
		b := a%objects + 1
		for dir, pair := range [][2]ids.ObjectID{{a, b}, {b, a}} {
			ns := servers[dir]
			wg.Add(1)
			go func(from, to ids.ObjectID) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := ns.Run(from, "transfer", i64(int64(to))); err != nil {
						errs <- err
						return
					}
				}
			}(pair[0], pair[1])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("transfer: %v", err)
	}

	if rec.Counters().Aborts == 0 {
		t.Error("no family was aborted: the transfers never deadlocked")
	}
	// Committing releases fix the commit order at shard 0; no separate
	// sequencer round trip exists.
	releases := 0
	for _, m := range rec.Trace() {
		switch m.Kind {
		case stats.KindCommitSeq:
			t.Fatalf("trace holds a commit-sequence message: %+v", m)
		case stats.KindRelease:
			releases++
		}
	}
	if releases == 0 {
		t.Error("trace recorded no releases")
	}
	var sum int64
	for obj := ids.ObjectID(1); obj <= objects; obj++ {
		out, err := servers[0].Run(obj, "peek", nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += dec64(out)
	}
	if sum != 0 {
		t.Errorf("balances sum to %d, want 0 (a transfer half-applied)", sum)
	}
	// Lock hand-backs from aborted families are one-way, so give the
	// directory a moment to see the last of them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dump := g.host.DebugDump()
		if dump == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("directory not drained after the run:\n%s", dump)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
