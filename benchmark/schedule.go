package main

import (
	"encoding/binary"
	"fmt"
	"sync"

	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/schema"
	"lotec/internal/workload"
)

// auditMethod is the read-only method the benchmark adds to every class so
// a root transaction can read back all commit counters of an object.
const auditMethod = "audit"

// counterBytes is the size of the commit counter every written attribute
// starts with.
const counterBytes = 8

// flatCall is one invocation of a root's call tree, flattened in preorder
// so a body can name its node by index.
type flatCall struct {
	obj      int // object index into the workload's objects
	method   string
	seed     uint64
	children []int32
}

// plan is one schedule root ready to run: its flattened calls and, per
// written attribute, how many commits it adds to that attribute's counter.
type plan struct {
	node   ids.NodeID
	at     int64 // due time in nanoseconds from the start of the schedule
	calls  []flatCall
	writes []int // counter slots, one entry per declared write
}

// schedule is a compiled workload bound to the benchmark's bodies: the
// flattened plans, the counter slot layout, and the expected final
// counters accumulated as roots commit.
type schedule struct {
	w     *workload.Workload
	plans []plan
	// slotBase[i] is the first counter slot of object i; an object of
	// class c has one slot per attribute of c.
	slotBase []int
	slots    int
	classes  map[ids.ClassID]*schema.Class

	mu       sync.Mutex
	expected []int64 // committed writes per counter slot, guarded by mu
}

// newSchedule flattens a compiled workload. It rejects workloads whose
// outcome the counters cannot predict: injected aborts and undeclared
// writes.
func newSchedule(w *workload.Workload) (*schedule, error) {
	s := &schedule{w: w, classes: make(map[ids.ClassID]*schema.Class, len(w.Classes))}
	for _, cls := range w.Classes {
		s.classes[cls.ID] = cls
	}
	for _, o := range w.Objects {
		s.slotBase = append(s.slotBase, s.slots)
		s.slots += len(s.classes[o.Class].Attrs())
	}
	s.expected = make([]int64, s.slots)
	for i, r := range w.Roots {
		if r.Call.FailsOut() {
			return nil, fmt.Errorf("root %d is generated to fail; the benchmark needs committing roots", i)
		}
		p := plan{node: r.Node, at: int64(r.At)}
		if err := s.flatten(&p, r.Call); err != nil {
			return nil, fmt.Errorf("root %d: %w", i, err)
		}
		s.plans = append(s.plans, p)
	}
	if len(s.plans) == 0 {
		return nil, fmt.Errorf("workload %q compiled to no roots", w.Name)
	}
	return s, nil
}

// flatten appends c and its subtree to p in preorder.
func (s *schedule) flatten(p *plan, c workload.Call) error {
	if c.Fail || c.ExtraSeg > 0 {
		return fmt.Errorf("call on object %d injects a failure or an undeclared write", c.ObjIndex)
	}
	cls := s.classes[s.w.Objects[c.ObjIndex].Class]
	m, err := cls.MethodByName(c.Method)
	if err != nil {
		return err
	}
	for _, a := range m.Writes {
		p.writes = append(p.writes, s.slotBase[c.ObjIndex]+int(a))
	}
	idx := len(p.calls)
	p.calls = append(p.calls, flatCall{obj: c.ObjIndex, method: c.Method, seed: c.Seed})
	for _, ch := range c.Children {
		p.calls[idx].children = append(p.calls[idx].children, int32(len(p.calls)))
		if err := s.flatten(p, ch); err != nil {
			return err
		}
	}
	return nil
}

// commit adds a committed root's writes to the expected counters.
func (s *schedule) commit(p *plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, slot := range p.writes {
		s.expected[slot]++
	}
}

// expectedCounters returns a copy of the expected counters.
func (s *schedule) expectedCounters() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.expected...)
}

// auditClasses returns the workload's classes, each rebuilt with the
// read-only audit method appended. Appending keeps every generated
// method's ID and access sets unchanged.
func auditClasses(classes []*schema.Class) ([]*schema.Class, error) {
	out := make([]*schema.Class, 0, len(classes))
	for _, cls := range classes {
		b := schema.NewClassBuilder(cls.ID, cls.Name)
		all := make([]string, 0, len(cls.Attrs()))
		for _, a := range cls.Attrs() {
			b.Attr(a.Name, a.Size)
			all = append(all, a.Name)
		}
		names := func(attrs []schema.AttrID) []string {
			out := make([]string, 0, len(attrs))
			for _, id := range attrs {
				out = append(out, cls.Attrs()[id].Name)
			}
			return out
		}
		for _, m := range cls.Methods() {
			b.Method(schema.MethodSpec{Name: m.Name, Reads: names(m.Reads), Writes: names(m.Writes), Invokes: m.Invokes})
		}
		b.Method(schema.MethodSpec{Name: auditMethod, Reads: all})
		c, err := b.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// auditBody reads the counter of every attribute of the object and
// returns them concatenated, one little-endian uint64 per attribute.
func auditBody(ctx *node.Ctx) error {
	var out []byte
	for _, a := range ctx.Class().Attrs() {
		b, err := ctx.ReadAt(a.Name, 0, counterBytes)
		if err != nil {
			return err
		}
		out = append(out, b...)
	}
	ctx.SetResult(out)
	return nil
}

// checkCounters compares the counters read back from every object with the
// commits the run saw. got[i] holds object i's counters. A counter may
// exceed its expectation by at most slack[slot]: the writes of roots still
// outstanding when the run ended, which may or may not have committed.
func (s *schedule) checkCounters(got [][]byte, slack []int64) error {
	exp := s.expectedCounters()
	for i, base := range s.slotBase {
		n := len(s.classes[s.w.Objects[i].Class].Attrs())
		if len(got[i]) != n*counterBytes {
			return fmt.Errorf("object %d: read back %d counter bytes, want %d", i, len(got[i]), n*counterBytes)
		}
		for a := 0; a < n; a++ {
			v := int64(binary.LittleEndian.Uint64(got[i][a*counterBytes:]))
			lo := exp[base+a]
			hi := lo
			if slack != nil {
				hi += slack[base+a]
			}
			if v < lo || v > hi {
				return fmt.Errorf("object %d attribute %d: counter %d, committed writes %d (+%d outstanding): lost or doubled update",
					i, a, v, lo, hi-lo)
			}
		}
	}
	return nil
}

// slackOf sums the writes of outstanding roots per counter slot.
func (s *schedule) slackOf(outstanding []*plan) []int64 {
	slack := make([]int64, s.slots)
	for _, p := range outstanding {
		for _, slot := range p.writes {
			slack[slot]++
		}
	}
	return slack
}

// callArg is what the benchmark passes to each method body: which call of
// which plan to run, the root it belongs to, and the span that caused it
// (0 when tracing is off).
type callArg struct {
	plan   uint32
	call   uint32
	root   uint64
	parent uint64
}

const callArgBytes = 24

func (a callArg) encode() []byte {
	b := make([]byte, callArgBytes)
	binary.LittleEndian.PutUint32(b[0:], a.plan)
	binary.LittleEndian.PutUint32(b[4:], a.call)
	binary.LittleEndian.PutUint64(b[8:], a.root)
	binary.LittleEndian.PutUint64(b[16:], a.parent)
	return b
}

func decodeCallArg(b []byte) (callArg, error) {
	if len(b) != callArgBytes {
		return callArg{}, fmt.Errorf("benchmark: call argument of %d bytes, want %d", len(b), callArgBytes)
	}
	return callArg{
		plan:   binary.LittleEndian.Uint32(b[0:]),
		call:   binary.LittleEndian.Uint32(b[4:]),
		root:   binary.LittleEndian.Uint64(b[8:]),
		parent: binary.LittleEndian.Uint64(b[16:]),
	}, nil
}
