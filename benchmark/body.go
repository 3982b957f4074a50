package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"lotec/internal/ids"
	"lotec/internal/node"
)

// bodies runs the schedule's calls as method bodies. It touches exactly
// the byte ranges workload.Body touches — the first byte of each read
// attribute, the leading writeBytes (or all) of each written attribute —
// but keeps a commit counter in the first 8 bytes of every write, so the
// run can check afterwards that no committed update was lost or doubled.
// With a tracer it records a span around the body and around each of its
// calls into node.Ctx.
type bodies struct {
	sched      *schedule
	objs       []ids.ObjectID
	writeBytes int
	// tr is the tracer, nil while tracing is off. It is switched on between
	// windows, while roots of the previous window may still be running.
	tr atomic.Pointer[tracer]
	// now is the span clock: wall time on TCP, virtual time on the
	// simulator. Set before any body runs.
	now func() time.Duration
}

// body is the node.MethodFunc registered for every generated method.
func (b *bodies) body(ctx *node.Ctx) error {
	a, err := decodeCallArg(ctx.Arg())
	if err != nil {
		return err
	}
	tr := b.tr.Load()
	var self uint64
	if tr != nil {
		self = tr.newID()
		start := b.now()
		defer func() {
			tr.add(span{id: self, parent: a.parent, root: a.root, kind: spanBody, start: start, end: b.now()})
		}()
	}
	p := &b.sched.plans[a.plan]
	c := &p.calls[a.call]
	m := ctx.Method()
	attrs := ctx.Class().Attrs()
	var acc byte
	for _, id := range m.Reads {
		v, err := b.read(ctx, tr, a, self, attrs[id].Name, 1)
		if err != nil {
			return err
		}
		acc += v[0]
	}
	for _, id := range m.Writes {
		attr := attrs[id]
		old, err := b.read(ctx, tr, a, self, attr.Name, counterBytes)
		if err != nil {
			return err
		}
		n := attr.Size
		if b.writeBytes > 0 && b.writeBytes < n {
			n = b.writeBytes
		}
		buf := make([]byte, n)
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(old)+1)
		fill := byte(c.seed) + acc + 1
		for i := counterBytes; i < n; i++ {
			buf[i] = fill
		}
		if err := b.write(ctx, tr, a, self, attr.Name, buf); err != nil {
			return err
		}
	}
	for _, ci := range c.children {
		if err := b.invoke(ctx, tr, a, self, ci); err != nil {
			return err
		}
	}
	ctx.SetResult([]byte{acc})
	return nil
}

func (b *bodies) read(ctx *node.Ctx, tr *tracer, a callArg, parent uint64, attr string, n int) ([]byte, error) {
	if tr == nil {
		return ctx.ReadAt(attr, 0, n)
	}
	start := b.now()
	v, err := ctx.ReadAt(attr, 0, n)
	tr.add(span{id: tr.newID(), parent: parent, root: a.root, kind: spanRead, start: start, end: b.now()})
	return v, err
}

func (b *bodies) write(ctx *node.Ctx, tr *tracer, a callArg, parent uint64, attr string, data []byte) error {
	if tr == nil {
		return ctx.WriteAt(attr, 0, data)
	}
	start := b.now()
	err := ctx.WriteAt(attr, 0, data)
	tr.add(span{id: tr.newID(), parent: parent, root: a.root, kind: spanWrite, start: start, end: b.now()})
	return err
}

// invoke runs child call ci of a's plan as a sub-transaction.
func (b *bodies) invoke(ctx *node.Ctx, tr *tracer, a callArg, parent uint64, ci int32) error {
	child := &b.sched.plans[a.plan].calls[ci]
	arg := callArg{plan: a.plan, call: uint32(ci), root: a.root}
	if tr == nil {
		_, err := ctx.Invoke(b.objs[child.obj], child.method, arg.encode())
		return err
	}
	arg.parent = tr.newID()
	start := b.now()
	_, err := ctx.Invoke(b.objs[child.obj], child.method, arg.encode())
	tr.add(span{id: arg.parent, parent: parent, root: a.root, kind: spanInvoke, start: start, end: b.now()})
	return err
}

// rootArg returns the argument that starts plan pi as root `root`, with
// run as the span of the call that submits it.
func rootArg(pi int, root, run uint64) []byte {
	return callArg{plan: uint32(pi), root: root, parent: run}.encode()
}
