package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// samples returns one populated instance of every message type, plus an
// empty instance of each, for round-trip testing.
func samples() []Msg {
	return []Msg{
		&AcquireReq{Obj: 7, Ref: ids.TxRef{Tx: 9, Node: 2}, Family: 9, Age: 9, Site: 2, Mode: o2pl.Write},
		&AcquireReq{},
		&AcquireResp{Obj: 7, Status: gdo.GrantedNow, Mode: o2pl.Read, NumPages: 3, LastWriter: 2,
			PageMap: []gdo.PageLoc{{Node: 1, Version: 4}, {Node: 2, Version: 9}}},
		&AcquireResp{},
		&ReleaseReq{Family: 3, Site: 1, Commit: true, Rels: []gdo.ObjectRelease{
			{Obj: 1, Dirty: []ids.PageNum{0, 2}}, {Obj: 2}}},
		&ReleaseReq{},
		&ReleaseResp{Stamps: []gdo.PageStamp{{Obj: 1, Page: 2, Version: 5}}},
		&ReleaseResp{},
		&Grant{Obj: 4, Family: 8, Mode: o2pl.Write, Upgrade: true, NumPages: 5, LastWriter: 3,
			Reqs:    []gdo.QueuedReq{{Ref: ids.TxRef{Tx: 11, Node: 3}, Mode: o2pl.Read}},
			PageMap: []gdo.PageLoc{{Node: 3, Version: 2}}},
		&Grant{},
		&Abort{Obj: 4, Family: 8, Reqs: []gdo.QueuedReq{{Ref: ids.TxRef{Tx: 11, Node: 3}, Mode: o2pl.Write}}},
		&Abort{},
		&FetchReq{Obj: 2, Demand: true, Pages: []ids.PageNum{1, 3, 5}},
		&FetchReq{},
		&FetchResp{Obj: 2, Pages: []PagePayload{
			{Page: 1, Version: 7, Data: []byte{1, 2, 3}},
			{Page: 3, Version: 8, Data: []byte{9}}}},
		&FetchResp{},
		&PushReq{Obj: 2, Pages: []PagePayload{{Page: 0, Version: 1, Data: []byte{5, 5}}}},
		&PushReq{},
		&PushResp{},
		&CopySetReq{Objs: []ids.ObjectID{12, 15}},
		&CopySetReq{},
		&CopySetResp{Sets: []CopySet{
			{Obj: 12, Sites: []ids.NodeID{1, 4, 7}},
			{Obj: 15, Sites: nil}}},
		&CopySetResp{},
		&MultiFetchReq{Demand: true, Objs: []ObjPages{
			{Obj: 2, Pages: []ids.PageNum{1, 3}},
			{Obj: 5, Pages: []ids.PageNum{0}}}},
		&MultiFetchReq{},
		&MultiFetchResp{Objs: []ObjPayload{
			{Obj: 2, Pages: []PagePayload{{Page: 1, Version: 7, Data: []byte{1, 2, 3}}}},
			{Obj: 5, Pages: []PagePayload{{Page: 0, Version: 2, Data: []byte{9}}}}}},
		&MultiFetchResp{},
		&MultiPushReq{Objs: []ObjPayload{
			{Obj: 3, Pages: []PagePayload{{Page: 0, Version: 1, Data: []byte{5, 5}}}}}},
		&MultiPushReq{},
		&RegisterReq{Obj: 3, Class: 2, NumPages: 9, Owner: 1},
		&RegisterResp{},
		&RunReq{Obj: 3, Method: "deposit", Arg: []byte("100")},
		&RunReq{},
		&RunResp{Result: []byte("ok"), ErrMsg: "boom"},
		&RunResp{},
		&ErrResp{Msg: "nope"},
		&ErrResp{},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range samples() {
		env := Envelope{ReqID: 42, From: 1, To: 2}
		buf := Encode(env, m)
		gotEnv, got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: Decode: %v", m, err)
		}
		if gotEnv.Type != m.Type() || gotEnv.ReqID != 42 || gotEnv.From != 1 || gotEnv.To != 2 {
			t.Errorf("%T: envelope = %+v", m, gotEnv)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestSizeMatchesEncodedLength(t *testing.T) {
	for _, m := range samples() {
		buf := Encode(Envelope{}, m)
		if got, want := m.Size(), len(buf); got != want {
			t.Errorf("%T: Size() = %d, encoded length = %d", m, got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("nil buffer: %v", err)
	}
	if _, _, err := Decode(make([]byte, HeaderSize-1)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short header: %v", err)
	}
	// Unknown type.
	buf := Encode(Envelope{}, &ErrResp{Msg: "x"})
	buf[0] = 250
	if _, _, err := Decode(buf); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: %v", err)
	}
	for _, tag := range []MsgType{TAbortFamilyResp + 1, TAbortFamilyResp + 2} {
		buf[0] = byte(tag)
		if _, _, err := Decode(buf); !errors.Is(err, ErrUnknownType) {
			t.Errorf("tag %d past the enum: %v", tag, err)
		}
	}
	// Truncated body.
	buf = Encode(Envelope{}, &RunReq{Obj: 1, Method: "m", Arg: []byte("abc")})
	if _, _, err := Decode(buf[:len(buf)-2]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("truncated body: %v", err)
	}
	// Corrupt inner length → short read inside body.
	buf = Encode(Envelope{}, &RunReq{Obj: 1, Method: "m", Arg: []byte("abc")})
	buf[HeaderSize+8] = 0xFF // method length low byte
	if _, _, err := Decode(buf); err == nil {
		t.Error("corrupt inner length should fail")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf := Encode(Envelope{}, &CopySetReq{Objs: []ids.ObjectID{1}})
	// Inflate claimed body length and append junk.
	buf = append(buf, 0xEE)
	buf[17] = byte(int(buf[17]) + 1)
	if _, _, err := Decode(buf); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing: %v", err)
	}
}

func TestHeaderSizeConstant(t *testing.T) {
	buf := Encode(Envelope{}, &PushResp{})
	if len(buf) != HeaderSize {
		t.Errorf("empty message length = %d, want %d", len(buf), HeaderSize)
	}
}

// Property: random FetchResp messages round-trip and Size always matches.
func TestRoundTripPropertyFetchResp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m := &FetchResp{Obj: ids.ObjectID(rng.Int63n(1000))}
		for j := rng.Intn(6); j > 0; j-- {
			data := make([]byte, rng.Intn(64)+1)
			rng.Read(data)
			m.Pages = append(m.Pages, PagePayload{
				Page:    ids.PageNum(rng.Intn(32)),
				Version: rng.Uint64(),
				Data:    data,
			})
		}
		buf := Encode(Envelope{ReqID: uint64(i)}, m)
		if len(buf) != m.Size() {
			t.Fatalf("iteration %d: size %d vs %d", i, len(buf), m.Size())
		}
		_, got, err := Decode(buf)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("iteration %d: mismatch", i)
		}
	}
}
