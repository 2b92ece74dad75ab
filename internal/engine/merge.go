package engine

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	"idgka/internal/mathx"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// mergeAdvert is a controller's round-1 advertisement: its fresh blinded
// exponent z̃ and the z of its ring-closing member, under a GQ signature.
type mergeAdvert struct {
	zNew  *big.Int
	zLast *big.Int
	sig   *gq.Signature
}

// mergeFlow runs the three-round Merge protocol of Section 7 for one
// member of either group. Only the two controllers perform
// exponentiations (4 each); every other member does symmetric decryptions
// only. The final key is K' = K*_A · K*_B (equation 9).
type mergeFlow struct {
	mc        *Machine
	base      *Group // this member's established ring at Start
	rosterA   []string
	rosterB   []string
	newRoster []string
	ctlA      string
	ctlB      string
	isCtl     bool
	ownCtl    string // controller of this member's ring
	otherCtl  string // controller of the other ring

	// Controller state.
	rNew         mathx.Scalar
	kDH          mathx.Scalar
	kStarOwn     mathx.Scalar // own ring's K*
	kStarForeign mathx.Scalar // other ring's K*

	// Learned from traffic.
	adverts       map[string]*mergeAdvert
	wrapGroupOwn  []byte // round 2 from own controller (ordinary members)
	wrapDHPeer    []byte // round 2 from the peer controller (controllers)
	rewrapped     []byte // round 3 from own controller (ordinary members)
	tablesForeign []byte // round 3 state tables from the other controller

	started, sentR2, sentR3 bool
}

// StartMerge begins the three-round Merge fusing the groups with rings
// rosterA and rosterB into a single keyed group with ring A‖B. Every
// member of both groups starts the same flow with identical rosters; each
// names its own ring's committed session via base (empty base selects the
// machine's most recently committed group, for single-group lockstep
// drivers). The merged group commits under the flow's sid.
func (mc *Machine) StartMerge(sid, base string, rosterA, rosterB []string) ([]Outbound, []Event, error) {
	if len(rosterA) < 2 || len(rosterB) < 2 {
		return nil, nil, errors.New("engine: merge needs two groups of >= 2")
	}
	g, err := mc.baseGroup(base) // snapshot: concurrent commits must not switch the key mid-flow
	if err != nil {
		return nil, nil, err
	}
	f := &mergeFlow{
		mc:   mc,
		base: g,

		rosterA:   append([]string(nil), rosterA...),
		rosterB:   append([]string(nil), rosterB...),
		newRoster: append(append([]string(nil), rosterA...), rosterB...),
		ctlA:      rosterA[0],
		ctlB:      rosterB[0],
		adverts:   map[string]*mergeAdvert{},
	}
	own := f.rosterA
	switch {
	case slices.Contains(rosterA, mc.id):
		f.ownCtl, f.otherCtl = f.ctlA, f.ctlB
	case slices.Contains(rosterB, mc.id):
		f.ownCtl, f.otherCtl, own = f.ctlB, f.ctlA, f.rosterB
	default:
		return nil, nil, fmt.Errorf("engine: %s in neither merging ring", mc.id)
	}
	f.isCtl = mc.id == f.ownCtl
	if !g.ringEquals(own) {
		return nil, nil, fmt.Errorf("engine: merge base session ring %v does not match own ring %v", g.Roster, own)
	}
	return mc.start(sid, f, 0)
}

// deliver records the adverts of both controllers and the round-2 and
// round-3 messages this member's script reads; every other message of
// those types is checked and dropped.
func (f *mergeFlow) deliver(msg netsim.Message) error {
	switch msg.Type {
	case MsgMerge1:
		if msg.From != f.ctlA && msg.From != f.ctlB {
			return nil // only controllers advertise
		}
		a := &mergeAdvert{}
		if err := readPeer(msg, func(r *wire.Reader) { a.zNew, a.zLast, a.sig = r.Big(), r.Big(), readSig(r) }); err != nil {
			return err
		}
		if err := f.mc.checkZ(msg, a.zNew, a.zLast); err != nil {
			return err
		}
		f.adverts[msg.From] = a
	case MsgMerge2:
		var wrapGroup, wrapDH []byte
		if err := readPeer(msg, func(r *wire.Reader) { wrapGroup, wrapDH = r.Bytes(), r.Bytes() }); err != nil {
			return err
		}
		if f.isCtl && msg.From == f.otherCtl {
			f.wrapDHPeer = append([]byte(nil), wrapDH...)
		}
		if !f.isCtl && msg.From == f.ownCtl {
			f.wrapGroupOwn = append([]byte(nil), wrapGroup...)
		}
	case MsgMerge3:
		// The remainder of the payload is the state-table block.
		var w, tables []byte
		if err := readPeer(msg, func(r *wire.Reader) { w, tables = r.Bytes(), r.Rest() }); err != nil {
			return err
		}
		if msg.From == f.otherCtl {
			f.tablesForeign = tables
		}
		if !f.isCtl && msg.From == f.ownCtl {
			f.rewrapped = append([]byte(nil), w...)
		}
	}
	return nil
}

func (f *mergeFlow) advance() ([]Outbound, []Event, error) {
	if f.isCtl {
		return f.advanceController()
	}
	return f.advanceOrdinary()
}

// advanceController walks the controller script: advertise; on the peer
// advert fold the group key into K* and broadcast it wrapped under both
// the old group key and the cross-controller DH key; on the peer's round 2
// unwrap the foreign K*, re-broadcast it under the own group key with the
// session tables; commit once the peer's tables arrive.
//
// Equations 7 and 8 are the same fold in each controller's own ring view:
// U_1 puts in its edge to U_{n+m}, U_{n+1} its edge to U_n, and each
// learns the other ring's closing z from the peer's advert.
func (f *mergeFlow) advanceController() ([]Outbound, []Event, error) {
	mc := f.mc
	g := f.base
	var outs []Outbound
	if !f.started {
		rNew, zNew, err := mc.freshExp()
		if err != nil {
			return nil, nil, err
		}
		zLast := g.zs.Bytes(g.Size() - 1)
		payload, err := mc.sign(wire.NewBuffer().PutString(mc.id).PutBig(zNew).PutBytes(zLast).Bytes())
		if err != nil {
			return nil, nil, err
		}
		f.rNew = rNew
		f.adverts[mc.id] = &mergeAdvert{zNew: zNew, zLast: new(big.Int).SetBytes(zLast)}
		outs = append(outs, Outbound{Type: MsgMerge1, Payload: payload})
		f.started = true
	}
	if a := f.adverts[f.otherCtl]; a != nil && !f.sentR2 {
		signed := wire.NewBuffer().PutString(f.otherCtl).PutBig(a.zNew).PutBig(a.zLast).Bytes()
		if err := mc.verify(f.otherCtl, signed, a.sig); err != nil {
			return outs, nil, err
		}
		kDH, err := mc.dhPower(a.zNew, f.rNew)
		if err != nil {
			return outs, nil, err
		}
		kStar, err := mc.foldKey(g, a.zLast, f.rNew)
		if err != nil {
			return outs, nil, err
		}
		f.kDH = kDH
		// Wrap K* under the old group key and under the DH key.
		wrapGroup, err := mc.wrapKey(g.Key, kStar, nil)
		if err != nil {
			return outs, nil, err
		}
		wrapDH, err := mc.wrapKey(f.kDH, kStar, nil)
		if err != nil {
			return outs, nil, err
		}
		f.kStarOwn = kStar
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(wrapGroup).PutBytes(wrapDH).Bytes()
		outs = append(outs, Outbound{Type: MsgMerge2, Payload: payload})
		f.sentR2 = true
	}
	if f.wrapDHPeer != nil && f.kDH.Order() != nil && !f.sentR3 {
		peerKStar, err := mc.unwrapKey(f.kDH, f.wrapDHPeer, f.otherCtl, nil)
		if err != nil {
			return outs, nil, err
		}
		// Re-wrap under own group key for the rest of the ring, with this
		// ring's z/t state for the other group.
		rewrapped, err := mc.wrapKey(g.Key, peerKStar, nil)
		if err != nil {
			return outs, nil, err
		}
		f.kStarForeign = peerKStar
		outs = append(outs, mc.withTables(MsgMerge3, "", rewrapped, encodeStateTables(g)))
		f.sentR3 = true
	}
	if f.kStarOwn.Order() != nil && f.kStarForeign.Order() != nil && f.tablesForeign != nil {
		evts, err := f.commit(f.rNew)
		return outs, evts, err
	}
	return outs, nil, nil
}

// advanceOrdinary: unwrap the own-ring K* (round 2, own-group wrap) and
// the foreign K* (round 3 rebroadcast by the own controller), then commit
// once the foreign controller's tables and both adverts are in.
func (f *mergeFlow) advanceOrdinary() ([]Outbound, []Event, error) {
	mc := f.mc
	if f.wrapGroupOwn != nil && f.kStarOwn.Order() == nil {
		own, err := mc.unwrapKey(f.base.Key, f.wrapGroupOwn, f.ownCtl, nil)
		if err != nil {
			return nil, nil, err
		}
		f.kStarOwn = own
	}
	if f.rewrapped != nil && f.kStarForeign.Order() == nil {
		foreign, err := mc.unwrapKey(f.base.Key, f.rewrapped, f.ownCtl, nil)
		if err != nil {
			return nil, nil, err
		}
		f.kStarForeign = foreign
	}
	if f.kStarOwn.Order() != nil && f.kStarForeign.Order() != nil && f.tablesForeign != nil &&
		f.adverts[f.ctlA] != nil && f.adverts[f.ctlB] != nil {
		evts, err := f.commit(f.base.R)
		return nil, evts, err
	}
	return nil, nil, nil
}

// commit builds the merged session: key K' = K*_A · K*_B over the ring
// A‖B, with the controllers' fresh z̃ values and both ring-closing z
// values recorded (both adverts were broadcast to every node, so every
// member also learns them; retaining them keeps later merges and leaves
// runnable from any member's state), then ingests the foreign ring's
// state tables. Both callers hold both adverts.
func (f *mergeFlow) commit(r mathx.Scalar) ([]Event, error) {
	key, err := f.mc.groupKey(new(big.Int).Mul(f.kStarOwn.BigVarTime(), f.kStarForeign.BigVarTime()))
	if err != nil {
		return nil, err
	}
	advA, advB := f.adverts[f.ctlA], f.adverts[f.ctlB]
	g := f.mc.newGroup(f.newRoster)
	g.R = r
	g.Tau = f.base.Tau
	g.copyViews(f.base, g.Position(f.ownCtl)) // the own ring starts at its controller
	nA := len(f.rosterA)
	g.zs.Load(0, advA.zNew)
	g.zs.Load(nA, advB.zNew)
	g.zs.Load(nA-1, advA.zLast)
	g.zs.Load(g.Size()-1, advB.zLast)
	g.Key = key
	if err := f.mc.ingestStateTables(g, f.tablesForeign); err != nil {
		return nil, err
	}
	return []Event{{Kind: EventEstablished, Group: g}}, nil
}
