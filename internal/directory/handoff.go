// Online shard handoff: seal → drain → export → ship → ratify → redirect.
//
// The old primary seals the shard (new client ops park), drains the
// replication pipeline so the backup's state equals its own, exports the
// shard's directory snapshot (gdo.Export), and ships it to the target with
// the proposed next map (epoch+1, Primary = target, Backup unchanged —
// valid because the drained backup already matches the snapshot). The
// target imports the state but activates only after the shard's backup —
// acting as the epoch witness — ratifies the proposed map. Ratification is
// first-proposal-wins (see epochChangeLocked), which also serializes
// activation against cancellation: an old primary that loses contact with
// the target proposes a cancel map through the same witness, and whichever
// proposal lands first decides the shard's fate. Parked operations are
// replayed on cancel and redirected via RouteResp on completion — in
// either case never dropped.

package directory

import (
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// handoffState tracks one in-progress outbound handoff at the old primary.
type handoffState struct {
	target     ids.NodeID
	start      time.Duration
	stateBytes int
	shipped    bool
	cancelMap  wire.PlacementMap
	done       func(wire.Msg)
}

// handoffStartLocked begins an outbound handoff at the shard's current
// primary. Ownership is by the host's own map (the request is epoch-free:
// it is an operator command, not client traffic).
func (h *Host) handoffStartLocked(a *acts, t *wire.HandoffStartReq, reply func(wire.Msg)) {
	shard := int(t.Shard)
	rep := h.ownerLocked(shard, h.cur.Epoch)
	if rep == nil {
		a.reply(reply, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
		return
	}
	if t.Target == h.self {
		// Degenerate move to self: nothing to transfer.
		a.reply(reply, &wire.HandoffStartResp{OK: true, Map: h.cur.Clone()})
		return
	}
	if rep.sealed || rep.handoff != nil {
		// One transfer at a time per shard.
		a.reply(reply, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
		return
	}
	rep.sealed = true
	rep.handoff = &handoffState{target: t.Target, start: h.env.Now(), done: reply}
	h.maybeShipLocked(a, rep)
}

// maybeShipLocked ships the snapshot once the shard is sealed and the
// replication pipeline has drained (so backup state == exported state).
func (h *Host) maybeShipLocked(a *acts, rep *replica) {
	ho := rep.handoff
	if ho == nil || ho.shipped || !rep.sealed || len(rep.queue) > 0 || rep.inflight {
		return
	}
	ho.shipped = true
	state := rep.dir.Export()
	ho.stateBytes = len(state)
	next := h.cur.Clone()
	next.Epoch++
	next.Primary[rep.shard] = ho.target
	h.reqCtr++
	req := &wire.HandoffReq{
		ReqID: h.reqCtr,
		Shard: int32(rep.shard),
		Seq:   rep.seq,
		Map:   next,
		State: state,
	}
	shard := rep.shard
	target := ho.target
	a.proc(func() {
		resp, err := h.env.Call(target, req)
		h.onHandoffShipped(shard, resp, err)
	})
}

// onHandoffShipped is the continuation of the HandoffReq at the old
// primary: on success adopt the ratified map (deposing ourselves and
// redirecting parked ops), on refusal adopt the winner's map, on
// unreachable target cancel through the witness.
func (h *Host) onHandoffShipped(shard int, resp wire.Msg, err error) {
	a := &acts{h: h}
	h.mu.Lock()
	rep := h.reps[shard]
	if rep == nil || rep.handoff == nil {
		h.mu.Unlock()
		a.run()
		return
	}
	ho := rep.handoff
	hr, isHR := resp.(*wire.HandoffResp)
	switch {
	case err == nil && isHR && hr.OK:
		// Target active. Answer the operator first, then adopt — adoption
		// deposes this replica and redirects its parked ops.
		latency := h.env.Now() - ho.start
		rep.handoff = nil
		a.reply(ho.done, &wire.HandoffStartResp{
			OK:         true,
			StateBytes: uint64(ho.stateBytes),
			Map:        hr.Map.Clone(),
		})
		if h.rec != nil {
			h.rec.AddHandoff(stats.HandoffSample{Shard: shard, Bytes: ho.stateBytes, Latency: latency})
		}
		h.adoptLocked(a, hr.Map)
	case err == nil && isHR:
		// Target refused (lost an epoch race, or a newer map exists).
		rep.handoff = nil
		h.adoptLocked(a, hr.Map)
		if h.reps[shard] == rep && rep.primary {
			h.unsealLocked(a, rep)
		}
		a.reply(ho.done, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
	default:
		// Target unreachable (or answered garbage): cancel through the
		// witness so activation-vs-cancel is serialized by one actor.
		h.cancelHandoffLocked(a, rep)
	}
	h.mu.Unlock()
	a.run()
}

// cancelHandoffLocked proposes a cancel map (epoch+1, ownership
// unchanged) through the shard's witness. With no witness there is no
// racing proposal to lose to, so the shard simply unseals.
func (h *Host) cancelHandoffLocked(a *acts, rep *replica) {
	ho := rep.handoff
	witness := h.liveBackupLocked(rep)
	if witness == ids.NoNode {
		rep.handoff = nil
		h.unsealLocked(a, rep)
		a.reply(ho.done, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
		return
	}
	ho.cancelMap = h.cur.Clone()
	ho.cancelMap.Epoch++
	h.reqCtr++
	req := &wire.EpochChangeReq{ReqID: h.reqCtr, Map: ho.cancelMap.Clone()}
	shard := rep.shard
	a.proc(func() {
		resp, err := h.env.Call(witness, req)
		h.onHandoffCanceled(shard, resp, err)
	})
}

// onHandoffCanceled resolves the cancel proposal: accepted means the
// handoff never happened (unseal and replay parked ops under the cancel
// epoch); refused means the target's activation won (adopt its map, which
// deposes us and redirects everything).
func (h *Host) onHandoffCanceled(shard int, resp wire.Msg, err error) {
	a := &acts{h: h}
	h.mu.Lock()
	rep := h.reps[shard]
	if rep == nil || rep.handoff == nil {
		h.mu.Unlock()
		a.run()
		return
	}
	ho := rep.handoff
	rep.handoff = nil
	if ec, ok := resp.(*wire.EpochChangeResp); err == nil && ok {
		h.adoptLocked(a, ec.Map)
	}
	// Witness unreachable too: both the target and the witness are out of
	// reach — outside the single-failure budget. Unseal at the current
	// epoch so local shards stay live; a surviving ratified map, if any,
	// reaches us through the normal RouteResp/ReplicateResp channels.
	if h.reps[shard] == rep && rep.primary {
		h.unsealLocked(a, rep)
		h.markEdgesDirtyLocked(a)
	}
	a.reply(ho.done, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
	h.mu.Unlock()
	a.run()
}

// unsealLocked reopens a sealed shard and replays its parked operations
// through the normal front door.
func (h *Host) unsealLocked(a *acts, rep *replica) {
	rep.sealed = false
	parked := rep.parked
	rep.parked = nil
	h.replayParkedLocked(a, parked)
}

// handoffRecvLocked is the target side: import the snapshot, have the
// witness ratify the proposed map, then activate. The reply is deferred
// until ratification resolves (hence the async handler).
func (h *Host) handoffRecvLocked(a *acts, t *wire.HandoffReq, reply func(wire.Msg)) {
	shard := int(t.Shard)
	if shard < 0 || shard >= t.Map.NumShards() || t.Map.Primary[shard] != h.self {
		a.reply(reply, &wire.ErrResp{Msg: "directory: handoff misaddressed"})
		return
	}
	if rep := h.reps[shard]; rep != nil && rep.primary && h.cur.Epoch >= t.Map.Epoch {
		// Re-delivery after a completed activation.
		a.reply(reply, &wire.HandoffResp{OK: true, Map: h.cur.Clone()})
		return
	}
	if t.Map.Epoch <= h.cur.Epoch {
		// A newer map exists; this transfer is already stale.
		a.reply(reply, &wire.HandoffResp{OK: false, Map: h.cur.Clone()})
		return
	}
	dir, err := gdo.Import(t.State)
	if err != nil {
		a.reply(reply, &wire.ErrResp{Msg: "directory: handoff state corrupt: " + err.Error()})
		return
	}
	witness := t.Map.Backup[shard]
	if witness == ids.NoNode || witness == h.self {
		if !h.activateLocked(a, shard, t, dir) {
			a.reply(reply, &wire.HandoffResp{OK: false, Map: h.cur.Clone()})
			return
		}
		a.reply(reply, &wire.HandoffResp{OK: true, Map: h.cur.Clone()})
		return
	}
	h.reqCtr++
	req := &wire.EpochChangeReq{ReqID: h.reqCtr, Map: t.Map.Clone()}
	a.proc(func() {
		resp, err := h.env.Call(witness, req)
		h.onHandoffRatified(t, dir, resp, err, reply)
	})
}

// onHandoffRatified activates the imported shard if the witness accepted
// the proposed map, and refuses the transfer otherwise.
func (h *Host) onHandoffRatified(t *wire.HandoffReq, dir *gdo.Directory, resp wire.Msg, err error, reply func(wire.Msg)) {
	a := &acts{h: h}
	h.mu.Lock()
	ec, ok := resp.(*wire.EpochChangeResp)
	switch {
	case err != nil || !ok:
		a.reply(reply, &wire.HandoffResp{OK: false, Map: h.cur.Clone()})
	case !ec.OK:
		// Lost the proposal race (e.g. to the old primary's cancel).
		h.adoptLocked(a, ec.Map)
		a.reply(reply, &wire.HandoffResp{OK: false, Map: h.cur.Clone()})
	default:
		if h.activateLocked(a, int(t.Shard), t, dir) {
			a.reply(reply, &wire.HandoffResp{OK: true, Map: h.cur.Clone()})
		} else {
			a.reply(reply, &wire.HandoffResp{OK: false, Map: h.cur.Clone()})
		}
	}
	h.mu.Unlock()
	a.run()
}

// activateLocked installs the transferred shard as a live primary replica
// under the ratified map.
func (h *Host) activateLocked(a *acts, shard int, t *wire.HandoffReq, dir *gdo.Directory) bool {
	if t.Map.Epoch > h.cur.Epoch {
		h.adoptLocked(a, t.Map)
	} else if !t.Map.Equal(h.cur) {
		return false
	}
	h.reps[shard] = &replica{shard: shard, dir: dir, primary: true, seq: t.Seq}
	h.markEdgesDirtyLocked(a)
	return true
}
