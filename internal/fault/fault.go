// Package fault is a deterministic, seed-driven network fault injector
// for the LOTEC transports. A Plan describes what can go wrong — message
// drops, delays, duplicates, reorderings, one-way partitions, and node
// crash/restart windows — each scoped by message kind, site pair, and
// time window. An Injector evaluates the plan: given a message about to
// be transmitted it returns a Decision (drop it, delay it, emit extra
// copies). All randomness derives from the plan seed through a counted
// splitmix64 stream, so the same plan over the same schedule produces
// the same faults: on SimNet every run replays byte-for-byte.
//
// The package deliberately knows nothing about transports (transport
// imports fault, not the reverse); it deals only in wire messages,
// node IDs, and durations.
package fault

import (
	"sync"
	"time"

	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// Op is a fault rule's effect.
type Op int

const (
	// OpDrop discards the message.
	OpDrop Op = iota + 1
	// OpDelay holds the message back by Rule.Delay before delivery.
	OpDelay
	// OpDuplicate transmits one extra copy of the message.
	OpDuplicate
	// OpReorder holds the message back by Rule.Delay so that later
	// traffic overtakes it — on SimNet's virtual clock this is exactly
	// an in-flight reordering.
	OpReorder
)

func (o Op) String() string {
	switch o {
	case OpDrop:
		return "drop"
	case OpDelay:
		return "delay"
	case OpDuplicate:
		return "dup"
	case OpReorder:
		return "reorder"
	}
	return "op?"
}

// Rule is one probabilistic fault clause. Zero values widen the scope:
// nil Kinds matches every message kind, zero From/To matches any site,
// zero Before means "until the end of the run".
type Rule struct {
	// Op is what happens when the rule fires.
	Op Op
	// Prob is the firing probability per matching message, in [0,1].
	Prob float64
	// Kinds restricts the rule to these message kinds (nil = all).
	Kinds []stats.MsgKind
	// From/To restrict the rule to one direction of one site pair
	// (0 = any site).
	From, To ids.NodeID
	// After/Before bound the active window on the transport clock
	// (Before 0 = forever).
	After, Before time.Duration
	// Delay is the hold-back for OpDelay and OpReorder.
	Delay time.Duration
	// MaxHits caps how many times the rule may fire (0 = unlimited).
	MaxHits int
}

// Crash is a node freeze-restart window: every message to or from Node
// during [At, Until) is held back and delivered when the node restarts
// at Until, like a process pausing and its socket buffers draining on
// resume. Until 0 means the node never restarts — messages are dropped
// outright (a permanent crash).
type Crash struct {
	Node      ids.NodeID
	At, Until time.Duration
}

// Partition is a one-way link cut: retriable RPC traffic (lock, release,
// fetch, push requests and replies) From → To is dropped during
// [After, Before). Grant and Abort notifications are exempt — they are
// sent exactly once and the protocol has no recovery path for losing
// them (see DESIGN.md "Failure model").
type Partition struct {
	From, To      ids.NodeID
	After, Before time.Duration
}

// Plan is a complete fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw.
	Seed uint64
	// Rules are evaluated in order for each transmitted message.
	Rules []Rule
	// Crashes are node freeze-restart windows.
	Crashes []Crash
	// Partitions are one-way link cuts.
	Partitions []Partition
}

// Decision is the injector's verdict on one transmission.
type Decision struct {
	// Drop discards the message entirely.
	Drop bool
	// Delay holds delivery back by this much.
	Delay time.Duration
	// Duplicates is how many extra copies to transmit.
	Duplicates int
}

// Injector evaluates a Plan against a stream of transmissions. Safe for
// concurrent use (the TCP transport judges from multiple goroutines);
// on SimNet the single-proc discipline makes the lock free of contention.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	draw uint64 // global draw counter: one per probabilistic decision
	hits []int  // per-rule fire counts (MaxHits accounting)
}

// NewInjector compiles a plan. A nil-equivalent (zero) plan yields an
// injector whose Judge always returns the zero Decision.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, hits: make([]int, len(plan.Rules))}
}

// RetriableKinds are the message kinds the engine can safely lose and
// retry: idempotent request/reply RPC legs. Grant and Abort are excluded
// — they are one-shot Sends with no retry path.
var RetriableKinds = []stats.MsgKind{
	stats.KindLockReq, stats.KindLockReply,
	stats.KindRelease, stats.KindReleaseReply,
	stats.KindFetchReq, stats.KindPageData,
	stats.KindPush, stats.KindPushReply,
	stats.KindMultiFetchReq, stats.KindMultiPageData,
	stats.KindMultiPush,
	// Control-plane replication traffic is idempotent end to end (body
	// request IDs + receiver dedup), so every leg may be dropped and
	// retried: that is what lets a partition cut primary↔backup or
	// old↔new owner during a handoff and still converge.
	stats.KindReplicate, stats.KindReplicateReply,
	stats.KindPromote, stats.KindPromoteReply,
	stats.KindEpoch, stats.KindEpochReply,
	stats.KindHandoff, stats.KindHandoffReply,
	stats.KindDetect, stats.KindDetectReply,
}

func kindRetriable(k stats.MsgKind) bool {
	for _, rk := range RetriableKinds {
		if k == rk {
			return true
		}
	}
	return false
}

// Judge decides the fate of one transmission of m from → to at time now.
// Every call consumes draws from the deterministic stream, so the caller
// must judge each transmission exactly once (duplicates included if it
// wants them re-faulted; the built-in transports do not re-judge copies).
func (in *Injector) Judge(now time.Duration, from, to ids.NodeID, m wire.Msg) Decision {
	var d Decision
	if in == nil {
		return d
	}
	kind := wire.Classify(m).Kind

	in.mu.Lock()
	defer in.mu.Unlock()

	// Crash windows: a frozen endpoint buffers traffic until restart.
	for _, c := range in.plan.Crashes {
		if from != c.Node && to != c.Node {
			continue
		}
		if now < c.At {
			continue
		}
		if c.Until == 0 {
			// Permanent crash: the node is gone.
			d.Drop = true
			return d
		}
		if now < c.Until {
			if hold := c.Until - now; hold > d.Delay {
				d.Delay = hold
			}
		}
	}

	// Partitions: one-way drop of retriable traffic only.
	for _, p := range in.plan.Partitions {
		if p.From != 0 && from != p.From {
			continue
		}
		if p.To != 0 && to != p.To {
			continue
		}
		if now < p.After || (p.Before != 0 && now >= p.Before) {
			continue
		}
		if kindRetriable(kind) {
			d.Drop = true
			return d
		}
	}

	// Probabilistic rules, in plan order. A drop short-circuits the rest;
	// delays accumulate (max) and duplicates add up.
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.MaxHits > 0 && in.hits[i] >= r.MaxHits {
			continue
		}
		if r.From != 0 && from != r.From {
			continue
		}
		if r.To != 0 && to != r.To {
			continue
		}
		if now < r.After || (r.Before != 0 && now >= r.Before) {
			continue
		}
		if r.Kinds != nil {
			match := false
			for _, k := range r.Kinds {
				if k == kind {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		in.draw++
		if u01(Mix64(in.plan.Seed^uint64(i+1), in.draw)) >= r.Prob {
			continue
		}
		in.hits[i]++
		switch r.Op {
		case OpDrop:
			d.Drop = true
			return d
		case OpDelay, OpReorder:
			if r.Delay > d.Delay {
				d.Delay = r.Delay
			}
		case OpDuplicate:
			d.Duplicates++
		}
	}
	return d
}

// Seed returns the plan's seed (0 for a nil injector); the transports
// reuse it to derive deterministic backoff jitter.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.plan.Seed
}

// Active reports whether the plan can ever inject anything.
func (in *Injector) Active() bool {
	if in == nil {
		return false
	}
	return len(in.plan.Rules) > 0 || len(in.plan.Crashes) > 0 || len(in.plan.Partitions) > 0
}

// Mix64 hashes its arguments through splitmix64 into one well-mixed
// 64-bit value — the deterministic randomness primitive for both fault
// draws and retry backoff jitter.
func Mix64(vs ...uint64) uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	for _, v := range vs {
		x ^= v
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x = x ^ (x >> 31)
	}
	return x
}

// u01 maps a hash to a float in [0,1).
func u01(v uint64) float64 { return float64(v>>11) / (1 << 53) }
