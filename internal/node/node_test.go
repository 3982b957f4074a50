package node_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/node"
	"lotec/internal/o2pl"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// rig is a minimal one- or two-node harness around the engine, below the
// sim.Cluster abstraction, for exercising engine internals directly.
type rig struct {
	net     *transport.SimNet
	dir     *gdo.Directory
	engines map[ids.NodeID]*node.Engine
	stores  map[ids.NodeID]*pstore.Store
	schemas *schema.Registry
	methods *node.MethodTable
}

func newRig(t *testing.T, nodes int, p core.Protocol) *rig {
	t.Helper()
	if p == nil {
		p = core.LOTEC
	}
	r := &rig{
		dir:     gdo.New(nodes),
		engines: make(map[ids.NodeID]*node.Engine),
		stores:  make(map[ids.NodeID]*pstore.Store),
		schemas: schema.NewRegistry(64),
		methods: node.NewMethodTable(),
	}
	r.net = transport.NewSimNet(nodes, netmodel.Ethernet100.WithSoftwareCost(5*time.Microsecond), stats.NewRecorder())
	mgr := txn.NewManager()
	for i := 1; i <= nodes; i++ {
		id := ids.NodeID(i)
		st := pstore.NewStore(64)
		eng, err := node.New(node.Config{
			Env:      r.net.Env(id),
			Store:    st,
			Schemas:  r.schemas,
			Methods:  r.methods,
			Manager:  mgr,
			Protocol: p,
			HomeFn:   r.dir.HomeNode,
			Dir:      r.dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.engines[id] = eng
		r.stores[id] = st
		r.net.SetHandler(id, eng.Handle)
	}
	return r
}

// addClass registers a tiny two-attribute class with one writer method.
func (r *rig) addClass(t *testing.T) *schema.Class {
	t.Helper()
	cls, err := schema.NewClassBuilder(1, "C").
		Attr("a", 8).
		Attr("b", 8).
		Method(schema.MethodSpec{Name: "set", Writes: []string{"a"}}).
		Method(schema.MethodSpec{Name: "get", Reads: []string{"a"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.schemas.Add(cls); err != nil {
		t.Fatal(err)
	}
	return cls
}

func (r *rig) createObject(t *testing.T, obj ids.ObjectID, cls ids.ClassID, owner ids.NodeID) {
	t.Helper()
	layout, err := r.schemas.Layout(cls)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dir.Register(obj, layout.NumPages(), owner); err != nil {
		t.Fatal(err)
	}
	for _, eng := range r.engines {
		if err := eng.RegisterObject(obj, cls, owner); err != nil {
			t.Fatal(err)
		}
	}
}

// run executes fn as a proc at node id and drives the net to quiescence.
func (r *rig) run(t *testing.T, id ids.NodeID, fn func()) {
	t.Helper()
	r.net.Env(id).Go(fn)
	if err := r.net.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsIncompleteConfig(t *testing.T) {
	if _, err := node.New(node.Config{}); err == nil {
		t.Error("empty config should fail")
	}
}

func TestRegisterObjectMaterializesAtOwner(t *testing.T) {
	r := newRig(t, 2, nil)
	cls := r.addClass(t)
	r.createObject(t, 1, cls.ID, 1)
	if got := len(r.stores[1].ResidentPages(1)); got == 0 {
		t.Error("owner has no resident pages")
	}
	if got := len(r.stores[2].ResidentPages(1)); got != 0 {
		t.Errorf("non-owner has %d resident pages", got)
	}
	v, ok := r.stores[1].PageVersion(ids.PageID{Object: 1, Page: 0})
	if !ok || v != 1 {
		t.Errorf("owner page version = %d,%v, want 1", v, ok)
	}
}

func TestRegisterObjectUnknownClass(t *testing.T) {
	r := newRig(t, 1, nil)
	if err := r.engines[1].RegisterObject(1, 99, 1); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestMethodTableDuplicateAndMissing(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	fn := func(*node.Ctx) error { return nil }
	if err := r.methods.Register(cls, "set", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.methods.Register(cls, "set", fn); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.methods.Register(cls, "nosuch", fn); err == nil {
		t.Error("unknown method should fail")
	}
	// Body missing for "get": running it must surface ErrUnknownMethod.
	r.createObject(t, 1, cls.ID, 1)
	var runErr error
	r.run(t, 1, func() {
		_, _, runErr = r.engines[1].Run(1, "get", nil)
	})
	if !errors.Is(runErr, node.ErrUnknownMethod) {
		t.Errorf("err = %v, want ErrUnknownMethod", runErr)
	}
}

func TestRunUnknownObjectAndMethod(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	if err := r.methods.Register(cls, "set", func(*node.Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var err1, err2 error
	r.run(t, 1, func() {
		_, _, err1 = r.engines[1].Run(99, "set", nil)
	})
	if !errors.Is(err1, node.ErrUnknownObject) {
		t.Errorf("unknown object: %v", err1)
	}
	r.createObject(t, 1, cls.ID, 1)
	r.run(t, 1, func() {
		_, _, err2 = r.engines[1].Run(1, "zzz", nil)
	})
	if !errors.Is(err2, schema.ErrUnknownMethod) {
		t.Errorf("unknown method: %v", err2)
	}
}

func TestCtxValidation(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	var bodyErrs []error
	if err := r.methods.Register(cls, "set", func(ctx *node.Ctx) error {
		collect := func(err error) { bodyErrs = append(bodyErrs, err) }
		_, err := ctx.Read("nope")
		collect(err)
		collect(ctx.Write("a", []byte{1, 2})) // wrong size
		_, err = ctx.ReadAt("a", -1, 4)
		collect(err)
		_, err = ctx.ReadAt("a", 4, 8) // overruns attribute
		collect(err)
		collect(ctx.WriteAt("a", 7, []byte{1, 2})) // overruns attribute
		// Accessors.
		if ctx.Self() != 1 || ctx.Class() != cls || ctx.Method().Name != "set" {
			collect(errors.New("accessor mismatch"))
		} else {
			collect(nil)
		}
		if ctx.TxID() == ids.NoTx {
			collect(errors.New("no tx id"))
		} else {
			collect(nil)
		}
		if !bytes.Equal(ctx.Arg(), []byte{9}) {
			collect(errors.New("arg mismatch"))
		} else {
			collect(nil)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.createObject(t, 1, cls.ID, 1)
	var runErr error
	r.run(t, 1, func() {
		_, _, runErr = r.engines[1].Run(1, "set", []byte{9})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(bodyErrs) != 8 {
		t.Fatalf("collected %d results", len(bodyErrs))
	}
	for i, err := range bodyErrs[:5] {
		if err == nil {
			t.Errorf("validation %d should have failed", i)
		}
	}
	for i, err := range bodyErrs[5:] {
		if err != nil {
			t.Errorf("accessor check %d failed: %v", i+5, err)
		}
	}
}

func TestHandleFetchMissingPage(t *testing.T) {
	r := newRig(t, 2, nil)
	cls := r.addClass(t)
	r.createObject(t, 1, cls.ID, 1)
	// Node 2 has no resident pages: fetching from it must error.
	reply := r.engines[2].Handle(1, &wire.FetchReq{Obj: 1, Pages: []ids.PageNum{0}})
	if _, ok := reply.(*wire.ErrResp); !ok {
		t.Errorf("reply = %T, want ErrResp", reply)
	}
	// Fetching resident pages from the owner succeeds.
	reply = r.engines[1].Handle(2, &wire.FetchReq{Obj: 1, Pages: []ids.PageNum{0}})
	fr, ok := reply.(*wire.FetchResp)
	if !ok || len(fr.Pages) != 1 || fr.Pages[0].Version != 1 {
		t.Errorf("reply = %+v", reply)
	}
}

func TestHandlePushVersionRules(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	r.createObject(t, 1, cls.ID, 1)
	eng := r.engines[1]
	newData := bytes.Repeat([]byte{7}, 64)

	// Older or equal versions are ignored.
	reply := eng.Handle(2, &wire.PushReq{Obj: 1, Pages: []wire.PagePayload{{Page: 0, Version: 1, Data: newData}}})
	if _, ok := reply.(*wire.PushResp); !ok {
		t.Fatalf("reply = %T", reply)
	}
	got, _ := r.stores[1].Read(1, 0, 1)
	if got[0] != 0 {
		t.Error("equal-version push should be ignored")
	}
	// Newer versions install.
	reply = eng.Handle(2, &wire.PushReq{Obj: 1, Pages: []wire.PagePayload{{Page: 0, Version: 5, Data: newData}}})
	if _, ok := reply.(*wire.PushResp); !ok {
		t.Fatalf("reply = %T", reply)
	}
	got, _ = r.stores[1].Read(1, 0, 1)
	if got[0] != 7 {
		t.Error("newer push not installed")
	}
	if v, _ := r.stores[1].PageVersion(ids.PageID{Object: 1, Page: 0}); v != 5 {
		t.Errorf("version = %d", v)
	}
}

func TestHandleRejectsGDOMessagesWithoutDirectory(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	// An engine with no Dir must refuse directory traffic.
	st := pstore.NewStore(64)
	eng, err := node.New(node.Config{
		Env:      r.net.Env(1),
		Store:    st,
		Schemas:  r.schemas,
		Methods:  r.methods,
		Manager:  txn.NewManager(),
		Protocol: core.LOTEC,
		HomeFn:   func(ids.ObjectID) ids.NodeID { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = cls
	for _, m := range []wire.Msg{
		&wire.AcquireReq{}, &wire.ReleaseReq{}, &wire.CopySetReq{}, &wire.RegisterReq{},
	} {
		reply := eng.Handle(2, m)
		er, ok := reply.(*wire.ErrResp)
		if !ok || !strings.Contains(er.Msg, "not a GDO host") {
			t.Errorf("%T: reply = %+v", m, reply)
		}
	}
	if reply := eng.Handle(2, &wire.RunResp{}); reply == nil {
		t.Error("unhandled type should produce an error reply")
	}
}

func TestRecursiveInvocationErrorSurfaces(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	if err := r.methods.Register(cls, "set", func(ctx *node.Ctx) error {
		_, err := ctx.Invoke(ctx.Self(), "set", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r.createObject(t, 1, cls.ID, 1)
	var runErr error
	r.run(t, 1, func() {
		_, _, runErr = r.engines[1].Run(1, "set", nil)
	})
	if !errors.Is(runErr, o2pl.ErrRecursiveInvocation) {
		t.Errorf("err = %v, want ErrRecursiveInvocation", runErr)
	}
}

func TestEngineDebugDump(t *testing.T) {
	r := newRig(t, 1, nil)
	cls := r.addClass(t)
	hold := make(chan struct{})
	if err := r.methods.Register(cls, "set", func(ctx *node.Ctx) error {
		close(hold)
		return ctx.Write("a", bytes.Repeat([]byte{1}, 8))
	}); err != nil {
		t.Fatal(err)
	}
	r.createObject(t, 1, cls.ID, 1)
	var dump string
	r.run(t, 1, func() {
		_, _, err := r.engines[1].Run(1, "set", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		dump = r.engines[1].DebugDump()
	})
	<-hold
	// After commit the dump is empty — families are cleaned up.
	if strings.Contains(dump, "doomed") && !strings.Contains(dump, "doomed=<nil>") {
		t.Errorf("unexpected doom in dump: %s", dump)
	}
	if r.engines[1].Self() != 1 {
		t.Error("Self mismatch")
	}
	if r.engines[1].Protocol().Name() != "LOTEC" {
		t.Error("Protocol mismatch")
	}
}

func TestDirectoryDebugDumpShowsHolders(t *testing.T) {
	d := gdo.New(2)
	if err := d.Register(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Acquire(1, ids.TxRef{Tx: 5, Node: 2}, 5, 5, 2, o2pl.Write); err != nil {
		t.Fatal(err)
	}
	dump := d.DebugDump()
	if !strings.Contains(dump, "holder") || !strings.Contains(dump, "O1") {
		t.Errorf("dump = %q", dump)
	}
	if lw, err := d.LastWriter(1); err != nil || lw != 1 {
		t.Errorf("LastWriter = %v, %v", lw, err)
	}
	if _, err := d.LastWriter(9); err == nil {
		t.Error("unknown object should fail")
	}
}
