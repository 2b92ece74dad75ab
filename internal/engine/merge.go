package engine

import (
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/sym"
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
	sideA     bool
	isCtl     bool
	ownCtl    string // controller of this member's ring
	otherCtl  string // controller of the other ring

	// Controller state.
	rNew         *big.Int
	kDH          *big.Int
	kStarOwn     *big.Int // own ring's K*
	kStarForeign *big.Int // other ring's K*

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
	inA := false
	for _, id := range rosterA {
		if id == mc.id {
			inA = true
		}
	}
	inB := false
	for _, id := range rosterB {
		if id == mc.id {
			inB = true
		}
	}
	switch {
	case inA:
		f.sideA, f.ownCtl, f.otherCtl = true, f.ctlA, f.ctlB
	case inB:
		f.sideA, f.ownCtl, f.otherCtl = false, f.ctlB, f.ctlA
	default:
		return nil, nil, fmt.Errorf("engine: %s in neither merging ring", mc.id)
	}
	f.isCtl = mc.id == f.ownCtl
	own := f.rosterA
	if !f.sideA {
		own = f.rosterB
	}
	if !g.ringEquals(own) {
		return nil, nil, fmt.Errorf("engine: merge base session ring %v does not match own ring %v", g.Roster, own)
	}
	return mc.start(sid, f)
}

func (f *mergeFlow) deliver(msg *netsim.Message) error {
	switch msg.Type {
	case MsgMerge1:
		if msg.From != f.ctlA && msg.From != f.ctlB {
			return nil // only controllers advertise
		}
		r := wire.NewReader(msg.Payload)
		id := r.String()
		a := &mergeAdvert{zNew: r.Big(), zLast: r.Big()}
		a.sig = &gq.Signature{S: r.Big(), C: r.Big()}
		if err := r.Close(); err != nil {
			return Retryable(fmt.Errorf("merge round1 from %s: %w", msg.From, err))
		}
		if id != msg.From {
			return nil
		}
		f.adverts[id] = a
	case MsgMerge2:
		r := wire.NewReader(msg.Payload)
		id := r.String()
		wrapGroup := r.Bytes()
		wrapDH := r.Bytes()
		if err := r.Close(); err != nil {
			return Retryable(fmt.Errorf("merge round2 from %s: %w", msg.From, err))
		}
		if id != msg.From {
			return nil
		}
		if f.isCtl && id == f.otherCtl {
			f.wrapDHPeer = append([]byte(nil), wrapDH...)
		}
		if !f.isCtl && id == f.ownCtl {
			f.wrapGroupOwn = append([]byte(nil), wrapGroup...)
		}
	case MsgMerge3:
		r := wire.NewReader(msg.Payload)
		id := r.String()
		w := r.Bytes()
		if r.Err() != nil {
			return Retryable(fmt.Errorf("merge round3 from %s: %w", msg.From, r.Err()))
		}
		if id != msg.From {
			return nil
		}
		// The remainder of the payload is the state-table block.
		rest := msg.Payload[len(msg.Payload)-r.Remaining():]
		if id == f.otherCtl {
			f.tablesForeign = rest
		}
		if !f.isCtl && id == f.ownCtl {
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
func (f *mergeFlow) advanceController() ([]Outbound, []Event, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	g := f.base
	var outs []Outbound
	if !f.started {
		rNew, err := mathx.RandScalar(mc.cfg.rand(), sg.Q)
		if err != nil {
			return nil, nil, err
		}
		zNew := sg.Exp(rNew)
		mc.m.Exp(1)
		zLast := g.Z[g.Last()]
		signed := wire.NewBuffer().PutString(mc.id).PutBig(zNew).PutBig(zLast).Bytes()
		sig, err := mc.sk.Sign(mc.cfg.rand(), signed)
		if err != nil {
			return nil, nil, err
		}
		mc.m.SignGen(meter.SchemeGQ, 1)
		f.rNew = rNew
		f.adverts[mc.id] = &mergeAdvert{zNew: zNew, zLast: zLast}
		payload := wire.NewBuffer().PutString(mc.id).PutBig(zNew).PutBig(zLast).
			PutBig(sig.S).PutBig(sig.C).Bytes()
		outs = append(outs, Outbound{Type: MsgMerge1, Payload: payload})
		f.started = true
	}
	if a := f.adverts[f.otherCtl]; a != nil && !f.sentR2 {
		signed := wire.NewBuffer().PutString(f.otherCtl).PutBig(a.zNew).PutBig(a.zLast).Bytes()
		if err := gq.Verify(gq.ParamsFrom(mc.cfg.Set.RSA), f.otherCtl, signed, a.sig); err != nil {
			mc.m.SignVer(meter.SchemeGQ, 1)
			return outs, nil, Retryable(fmt.Errorf("engine: %s rejects merge advert: %w", mc.id, err))
		}
		mc.m.SignVer(meter.SchemeGQ, 1)
		f.kDH = new(big.Int).Exp(a.zNew, f.rNew, sg.P)
		mc.m.Exp(1)
		kStar, err := f.foldOwnKey(a)
		if err != nil {
			return outs, nil, err
		}
		f.kStarOwn = kStar
		// Wrap K* under the old group key and under the DH key.
		cg, err := sym.NewFromBig(g.Key)
		if err != nil {
			return outs, nil, err
		}
		wrapGroup, err := cg.WrapSecret(mc.cfg.rand(), kStar, mc.id)
		if err != nil {
			return outs, nil, err
		}
		cd, err := sym.NewFromBig(f.kDH)
		if err != nil {
			return outs, nil, err
		}
		wrapDH, err := cd.WrapSecret(mc.cfg.rand(), kStar, mc.id)
		if err != nil {
			return outs, nil, err
		}
		mc.m.Sym(2, 0)
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(wrapGroup).PutBytes(wrapDH).Bytes()
		outs = append(outs, Outbound{Type: MsgMerge2, Payload: payload})
		f.sentR2 = true
	}
	if f.wrapDHPeer != nil && f.kDH != nil && !f.sentR3 {
		cd, err := sym.NewFromBig(f.kDH)
		if err != nil {
			return outs, nil, err
		}
		peerKStar, err := cd.UnwrapSecret(f.wrapDHPeer, f.otherCtl)
		if err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: %s failed to unwrap peer K*: %w", mc.id, err))
		}
		mc.m.Sym(0, 1)
		f.kStarForeign = peerKStar
		// Re-wrap under own group key for the rest of the ring.
		cg, err := sym.NewFromBig(g.Key)
		if err != nil {
			return outs, nil, err
		}
		rewrapped, err := cg.WrapSecret(mc.cfg.rand(), peerKStar, mc.id)
		if err != nil {
			return outs, nil, err
		}
		mc.m.Sym(1, 0)
		// Append the controller's session tables so the other group learns
		// this ring's z/t state (metered as state transfer).
		tables := encodeStateTables(g)
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(rewrapped).Bytes()
		payload = append(payload, tables...)
		outs = append(outs, Outbound{Type: MsgMerge3, Payload: payload, StateLen: len(tables)})
		f.sentR3 = true
	}
	if f.kStarOwn != nil && f.kStarForeign != nil && f.tablesForeign != nil {
		evts, err := f.commit(f.rNew)
		return outs, evts, err
	}
	return outs, nil, nil
}

// foldOwnKey computes this ring's K* (equations 7/8).
func (f *mergeFlow) foldOwnKey(a *mergeAdvert) (*big.Int, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	g := f.base
	var kStar *big.Int
	if f.sideA {
		// U_1: K*_A = K_A · (z_2·z_n)^{-r_1} · (z_2·z_{n+m})^{r'_1}.
		z2 := g.Z[g.Neighbor(0, 1)]
		zn := g.Z[g.Last()]
		t1 := new(big.Int).Mul(z2, zn)
		t1.Mod(t1, sg.P)
		t1, err := mathx.ModExp(t1, new(big.Int).Neg(g.R), sg.P)
		if err != nil {
			return nil, err
		}
		t2 := new(big.Int).Mul(z2, a.zLast) // z_{n+m} from the advert
		t2.Mod(t2, sg.P)
		t2.Exp(t2, f.rNew, sg.P)
		mc.m.Exp(2)
		kStar = new(big.Int).Mul(g.Key, t1)
		kStar.Mod(kStar, sg.P)
		kStar.Mul(kStar, t2)
		kStar.Mod(kStar, sg.P)
	} else {
		// U_{n+1}: K*_B = K_B · (z_n·z_{n+2})^{r'_{n+1}} · (z_{n+2}·z_{n+m})^{-r_{n+1}}.
		zNext := g.Z[g.Neighbor(0, 1)]         // z_{n+2}
		zLast := g.Z[g.Last()]                 // z_{n+m}
		t1 := new(big.Int).Mul(a.zLast, zNext) // z_n from the advert
		t1.Mod(t1, sg.P)
		t1.Exp(t1, f.rNew, sg.P)
		t2 := new(big.Int).Mul(zNext, zLast)
		t2.Mod(t2, sg.P)
		t2, err := mathx.ModExp(t2, new(big.Int).Neg(g.R), sg.P)
		if err != nil {
			return nil, err
		}
		mc.m.Exp(2)
		kStar = new(big.Int).Mul(g.Key, t1)
		kStar.Mod(kStar, sg.P)
		kStar.Mul(kStar, t2)
		kStar.Mod(kStar, sg.P)
	}
	return kStar, nil
}

// advanceOrdinary: unwrap the own-ring K* (round 2, own-group wrap) and
// the foreign K* (round 3 rebroadcast by the own controller), then commit
// once the foreign controller's tables and both adverts are in.
func (f *mergeFlow) advanceOrdinary() ([]Outbound, []Event, error) {
	mc := f.mc
	if f.wrapGroupOwn != nil && f.kStarOwn == nil {
		cg, err := sym.NewFromBig(f.base.Key)
		if err != nil {
			return nil, nil, err
		}
		own, err := cg.UnwrapSecret(f.wrapGroupOwn, f.ownCtl)
		if err != nil {
			return nil, nil, Retryable(fmt.Errorf("engine: %s failed to unwrap own K*: %w", mc.id, err))
		}
		mc.m.Sym(0, 1)
		f.kStarOwn = own
	}
	if f.rewrapped != nil && f.kStarForeign == nil {
		cg, err := sym.NewFromBig(f.base.Key)
		if err != nil {
			return nil, nil, err
		}
		foreign, err := cg.UnwrapSecret(f.rewrapped, f.ownCtl)
		if err != nil {
			return nil, nil, Retryable(fmt.Errorf("engine: %s failed to unwrap foreign K*: %w", mc.id, err))
		}
		mc.m.Sym(0, 1)
		f.kStarForeign = foreign
	}
	if f.kStarOwn != nil && f.kStarForeign != nil && f.tablesForeign != nil &&
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
// state tables.
func (f *mergeFlow) commit(r *big.Int) ([]Event, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	kA, kB := f.kStarOwn, f.kStarForeign
	if !f.sideA {
		kA, kB = f.kStarForeign, f.kStarOwn
	}
	key := new(big.Int).Mul(kA, kB)
	key.Mod(key, sg.P)

	advA, advB := f.adverts[f.ctlA], f.adverts[f.ctlB]
	if advA == nil || advB == nil {
		return nil, errors.New("engine: merge commit without both adverts")
	}
	g := NewGroup(f.newRoster)
	g.R = r
	g.Tau = f.base.Tau
	g.copyTables(f.base)
	g.Z[f.ctlA] = advA.zNew
	g.Z[f.ctlB] = advB.zNew
	g.Z[f.rosterA[len(f.rosterA)-1]] = advA.zLast
	g.Z[f.rosterB[len(f.rosterB)-1]] = advB.zLast
	g.Key = key

	tr := wire.NewReader(f.tablesForeign)
	if err := decodeStateTables(tr, g); err != nil {
		return nil, Retryable(fmt.Errorf("engine: %s merge state tables: %w", mc.id, err))
	}
	if err := tr.Close(); err != nil {
		return nil, Retryable(fmt.Errorf("engine: %s merge state tables: %w", mc.id, err))
	}
	return []Event{{Kind: EventEstablished, Group: g}}, nil
}
