package main

import (
	"fmt"
	"net"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/server"
	"lotec/internal/stats"
	"lotec/internal/workload"
)

// tcpCluster is an in-process TCP deployment on loopback: one GDOServer and
// one NodeServer per workload node, protocol LOTEC. Roots enter through
// NodeServer.Run, so no client connection is opened.
type tcpCluster struct {
	gdo   *server.GDOServer
	nodes []*server.NodeServer
	rec   *stats.Recorder // nil unless the cluster records traffic
	sched *schedule
	b     *bodies
	base  time.Time // origin of the span clock
}

// setupTCP compiles the workload and starts a cluster for it, with every
// object created and registered. rec may be nil.
func setupTCP(compile func() (*workload.Workload, error), rec *stats.Recorder) (*tcpCluster, error) {
	w, err := compile()
	if err != nil {
		return nil, err
	}
	sched, err := newSchedule(w)
	if err != nil {
		return nil, err
	}
	classes, err := auditClasses(w.Classes)
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(w.Cfg.Nodes + 1)
	if err != nil {
		return nil, err
	}
	topo := server.Topology{NodeAddrs: addrs[:w.Cfg.Nodes], GDOAddr: addrs[w.Cfg.Nodes]}
	c := &tcpCluster{rec: rec, sched: sched, base: time.Now()}
	c.b = &bodies{sched: sched, writeBytes: w.Cfg.WriteBytes, now: func() time.Duration { return time.Since(c.base) }}
	c.gdo = server.NewGDOServer(topo)
	if rec != nil {
		c.gdo.SetRecorder(rec)
	}
	if err := c.gdo.Start(); err != nil {
		return nil, fmt.Errorf("start GDO: %w", err)
	}
	for i := 0; i < w.Cfg.Nodes; i++ {
		n, err := server.NewNodeServer(server.NodeConfig{
			Topology: topo,
			Self:     ids.NodeID(i + 1),
			Protocol: core.LOTEC,
			PageSize: w.Cfg.PageSize,
			Rec:      rec,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, n)
		for _, cls := range classes {
			if err := n.AddClass(cls); err != nil {
				c.close()
				return nil, err
			}
			for _, m := range cls.Methods() {
				fn := c.b.body
				if m.Name == auditMethod {
					fn = auditBody
				}
				if err := n.OnMethod(cls, m.Name, fn); err != nil {
					c.close()
					return nil, err
				}
			}
		}
		if err := n.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
	}
	// The owner creates each object first: its call also registers the
	// object with the GDO.
	for j, o := range w.Objects {
		obj := ids.ObjectID(j + 1)
		c.b.objs = append(c.b.objs, obj)
		if err := c.nodes[o.Owner-1].CreateObject(obj, o.Class, o.Owner); err != nil {
			c.close()
			return nil, fmt.Errorf("create object %v: %w", obj, err)
		}
		for i, n := range c.nodes {
			if ids.NodeID(i+1) == o.Owner {
				continue
			}
			if err := n.CreateObject(obj, o.Class, o.Owner); err != nil {
				c.close()
				return nil, fmt.Errorf("create object %v at node %d: %w", obj, i+1, err)
			}
		}
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // Close never fails; it only drops connections.
	}
	if c.gdo != nil {
		_ = c.gdo.Close()
	}
}

// freeAddrs reserves n loopback addresses by binding and releasing them;
// the servers bind them again moments later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

// runRoot runs plan pi as root `root` and reports it to l. Latency counts
// from due, the time the root was due to start.
func (c *tcpCluster) runRoot(l *load, root uint64, pi int, due time.Time) {
	p := &c.sched.plans[pi]
	var run uint64
	var start time.Duration
	tr := c.b.tr.Load()
	if tr != nil {
		run = tr.newID()
		start = c.b.now()
	}
	_, err := c.nodes[p.node-1].Run(c.b.objs[p.calls[0].obj], p.calls[0].method, rootArg(pi, root, run))
	end := time.Now()
	if tr != nil {
		tr.add(span{id: run, root: root, kind: spanRun, start: start, end: end.Sub(c.base)})
	}
	if err == nil {
		c.sched.commit(p)
	}
	l.finish(root, due, end, err)
}

// closedLoop keeps `outstanding` roots in flight, cycling through the
// schedule from root ID *next, until the window has passed. One goroutine
// issues all load; each root runs on its own goroutine.
func (c *tcpCluster) closedLoop(l *load, next *uint64, outstanding int, window time.Duration) {
	slots := make(chan struct{}, outstanding) // a semaphore: one token per root in flight
	for t0 := time.Now(); time.Since(t0) < window; {
		slots <- struct{}{}
		root := *next
		*next++
		pi := int(root % uint64(len(c.sched.plans)))
		l.start(root, &c.sched.plans[pi])
		go func() {
			defer func() { <-slots }()
			c.runRoot(l, root, pi, time.Now())
		}()
	}
}

// openLoop starts each plan due within window at its due time, in
// schedule order. It returns how late the generator started the latest
// root.
func (c *tcpCluster) openLoop(l *load, next *uint64, window time.Duration) time.Duration {
	var dues []time.Duration
	for pi := range c.sched.plans {
		at := time.Duration(c.sched.plans[pi].at)
		if at >= window {
			break
		}
		dues = append(dues, at)
	}
	return pace(dues, func(pi int, due time.Time) {
		root := *next
		*next++
		l.start(root, &c.sched.plans[pi])
		go c.runRoot(l, root, pi, due)
	})
}

// pace calls start(i, due) for each offset in dues at that offset from
// now, one after another on the calling goroutine, and returns the most
// any call started after its due time. A start that blocks delays every
// later one: that lateness is the generator's, and the roots it delays are
// still timed from their due time.
func pace(dues []time.Duration, start func(i int, due time.Time)) time.Duration {
	var lateMax time.Duration
	t0 := time.Now()
	for i, at := range dues {
		due := t0.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
		start(i, due)
	}
	return lateMax
}

// readCounters runs one audit root per object at node 1 and returns each
// object's counters. It gives up after deadline.
func (c *tcpCluster) readCounters(deadline time.Duration) ([][]byte, error) {
	type res struct {
		got [][]byte
		err error
	}
	ch := make(chan res, 1) // buffered: the reader must not block if we gave up
	go func() {
		got := make([][]byte, len(c.b.objs))
		for i, obj := range c.b.objs {
			out, err := c.nodes[0].Run(obj, auditMethod, nil)
			if err != nil {
				ch <- res{err: fmt.Errorf("audit object %v: %w", obj, err)}
				return
			}
			got[i] = out
		}
		ch <- res{got: got}
	}()
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.got, r.err
	case <-t.C:
		return nil, fmt.Errorf("counter read-back did not finish within %v", deadline)
	}
}
