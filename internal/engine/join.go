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

// Join roles. The three-round Join protocol of Section 7 gives every
// participant a distinct script: the joiner U_{n+1} broadcasts its blinded
// exponent and later unwraps K* via a DH key with U_n; the controller U_1
// folds the group key into K* and broadcasts it under the old key; the
// ring-closing member U_n bridges the two by re-wrapping K* under the DH
// key; everyone else just decrypts the two broadcasts.
const (
	jrJoiner = iota
	jrController
	jrLast
	jrOrdinary
)

// joinFlow is the per-member state machine of the Join protocol.
type joinFlow struct {
	mc        *Machine
	base      *Group // the established group being extended (nil for the joiner)
	newRoster []string
	joiner    string
	u1, un    string
	role      int

	// Own secrets.
	rJoin  mathx.Scalar // joiner: fresh exponent r_{n+1}
	rPrime mathx.Scalar // U_1: fresh exponent r'_1
	kDH    mathx.Scalar // DH bridge key: the joiner and U_n compute it, U_1 unwraps it from m''_n
	kStar  mathx.Scalar // U_1: K* once folded

	// Learned from traffic.
	zJoin      *big.Int      // z_{n+1} from m_{n+1}
	m1Sig      *gq.Signature // σ_{n+1}, set once m_{n+1} arrived (verified by U_1 and U_n only)
	wrapStar   []byte        // E_K(K*‖U_1) from m'_1
	wrapDH     []byte        // E_K(K_DH‖U_n) from m''_n
	zn         *big.Int      // z_n as claimed in m''_n (joiner verifies)
	lastSig    *gq.Signature // σ'_n, set once m''_n arrived (joiner verifies)
	fwdWrapped []byte        // E_{K_DH}(K*‖U_n) from m'''_n
	fwdTables  []byte        // state tables appended to m'''_n

	started, sentCtl, sentLast bool
}

// StartJoin begins the three-round Join protocol admitting joiner into the
// group whose current ring is oldRoster. Every existing member and the
// joiner itself start the same flow; the joiner needs no established
// session, everyone else names the committed session being extended via
// base (empty base selects the machine's most recently committed group,
// for single-group lockstep drivers). The new group commits under the
// flow's sid.
func (mc *Machine) StartJoin(sid, base string, oldRoster []string, joiner string) ([]Outbound, []Event, error) {
	if len(oldRoster) < 2 {
		return nil, nil, errors.New("engine: join needs an existing group of >= 2")
	}
	f := &joinFlow{
		mc:        mc,
		newRoster: append(append([]string(nil), oldRoster...), joiner),
		joiner:    joiner,
		u1:        oldRoster[0],
		un:        oldRoster[len(oldRoster)-1],
	}
	switch {
	case mc.id == joiner:
		f.role = jrJoiner
	case mc.id == f.u1:
		f.role = jrController
	case mc.id == f.un:
		f.role = jrLast
	case slices.Contains(oldRoster, mc.id):
		f.role = jrOrdinary
	default:
		return nil, nil, fmt.Errorf("engine: %s neither in ring nor joining", mc.id)
	}
	if f.role != jrJoiner {
		// Snapshot the base group: a concurrent session committing while
		// this flow is in flight must not switch the key under it.
		g, err := mc.baseGroup(base)
		if err != nil {
			return nil, nil, err
		}
		if !g.ringEquals(oldRoster) {
			return nil, nil, fmt.Errorf("engine: join base session ring %v does not match roster %v", g.Roster, oldRoster)
		}
		f.base = g
	}
	return mc.start(sid, f, 0)
}

// deliver records the message of each round from the one member the
// script expects it from; the same type from anyone else is ignored.
func (f *joinFlow) deliver(msg netsim.Message) error {
	switch {
	case msg.Type == MsgJoin1 && msg.From == f.joiner:
		if err := readPeer(msg, func(r *wire.Reader) { f.zJoin, f.m1Sig = r.Big(), readSig(r) }); err != nil {
			return err
		}
		return f.mc.checkZ(msg, f.zJoin)
	case msg.Type == MsgJoinCtl && msg.From == f.u1:
		return readPeer(msg, func(r *wire.Reader) { f.wrapStar = r.Bytes() })
	case msg.Type == MsgJoinLast && msg.From == f.un:
		if err := readPeer(msg, func(r *wire.Reader) { f.wrapDH, f.zn, f.lastSig = r.Bytes(), r.Big(), readSig(r) }); err != nil {
			return err
		}
		return f.mc.checkZ(msg, f.zn)
	case msg.Type == MsgJoinFwd && msg.From == f.un && f.role == jrJoiner:
		// The remainder of the payload is the state-table block.
		return readPeer(msg, func(r *wire.Reader) { f.fwdWrapped, f.fwdTables = r.Bytes(), r.Rest() })
	}
	return nil
}

// verifyM1 checks the joiner's GQ signature over U_{n+1} ‖ z_{n+1}
// (performed by U_1 and U_n only, per the paper).
func (f *joinFlow) verifyM1() error {
	return f.mc.verify(f.joiner, wire.NewBuffer().PutString(f.joiner).PutBig(f.zJoin).Bytes(), f.m1Sig)
}

func (f *joinFlow) advance() ([]Outbound, []Event, error) {
	switch f.role {
	case jrJoiner:
		return f.advanceJoiner()
	case jrController:
		return f.advanceController()
	case jrLast:
		return f.advanceLast()
	default:
		return f.advanceOrdinary()
	}
}

// advanceJoiner: broadcast m_{n+1}; on m”_n verify σ'_n and derive the DH
// key; on m”'_n unwrap K* and commit.
func (f *joinFlow) advanceJoiner() ([]Outbound, []Event, error) {
	mc := f.mc
	var outs []Outbound
	if !f.started {
		r, z, err := mc.freshExp()
		if err != nil {
			return nil, nil, err
		}
		payload, err := mc.sign(wire.NewBuffer().PutString(mc.id).PutBig(z).Bytes())
		if err != nil {
			return nil, nil, err
		}
		f.rJoin, f.zJoin, f.started = r, z, true
		outs = append(outs, Outbound{Type: MsgJoin1, Payload: payload})
	}
	if f.lastSig != nil && f.kDH.Order() == nil {
		if err := mc.verify(f.un, wire.NewBuffer().PutBytes(f.wrapDH).PutBig(f.zn).Bytes(), f.lastSig); err != nil {
			return outs, nil, err
		}
		kDH, err := mc.dhPower(f.zn, f.rJoin)
		if err != nil {
			return outs, nil, err
		}
		f.kDH = kDH
	}
	if f.fwdWrapped != nil && f.kDH.Order() != nil {
		kStar, err := mc.unwrapKey(f.kDH, f.fwdWrapped, f.un, f.fwdTables)
		if err != nil {
			return outs, nil, err
		}
		evts, err := f.commit(kStar, f.kDH, f.rJoin)
		return outs, evts, err
	}
	return outs, nil, nil
}

// advanceController: on m_{n+1} verify, fold the key into K* with a fresh
// r'_1 (equation 5) and broadcast E_K(K*‖U_1); on m”_n unwrap K_DH and
// commit.
func (f *joinFlow) advanceController() ([]Outbound, []Event, error) {
	mc := f.mc
	g := f.base
	var outs []Outbound
	if f.m1Sig != nil && !f.sentCtl {
		if err := f.verifyM1(); err != nil {
			return nil, nil, err
		}
		rPrime, err := mathx.DrawScalar(mc.cfg.rand(), mc.cfg.Set.Schnorr.Q)
		if err != nil {
			return nil, nil, err
		}
		kStar, err := mc.foldKey(g, f.zJoin, rPrime)
		if err != nil {
			return nil, nil, err
		}
		wrapped, err := mc.wrapKey(g.Key, kStar, nil)
		if err != nil {
			return nil, nil, err
		}
		f.rPrime, f.kStar, f.sentCtl = rPrime, kStar, true
		outs = append(outs, Outbound{Type: MsgJoinCtl, Payload: wire.NewBuffer().PutString(mc.id).PutBytes(wrapped).Bytes()})
	}
	if f.lastSig != nil && f.kDH.Order() == nil {
		kDH, err := mc.unwrapKey(g.Key, f.wrapDH, f.un, nil)
		if err != nil {
			return outs, nil, err
		}
		f.kDH = kDH
	}
	if f.sentCtl && f.kDH.Order() != nil {
		evts, err := f.commit(f.kStar, f.kDH, f.rPrime) // U_1's exponent becomes r'_1
		return outs, evts, err
	}
	return outs, nil, nil
}

// advanceLast: on m_{n+1} verify and broadcast the wrapped DH key; on m'_1
// unwrap K*, re-wrap it under the DH key, forward it to the joiner with
// the session state tables, and commit.
func (f *joinFlow) advanceLast() ([]Outbound, []Event, error) {
	mc := f.mc
	g := f.base
	var outs []Outbound
	if f.m1Sig != nil && !f.sentLast {
		if err := f.verifyM1(); err != nil {
			return nil, nil, err
		}
		kDH, err := mc.dhPower(f.zJoin, g.R)
		if err != nil {
			return nil, nil, err
		}
		f.kDH = kDH
		wrappedDH, err := mc.wrapKey(g.Key, kDH, nil)
		if err != nil {
			return nil, nil, err
		}
		signed, err := mc.sign(wire.NewBuffer().PutBytes(wrappedDH).PutBytes(g.zs.Bytes(g.Position(mc.id))).Bytes())
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, Outbound{Type: MsgJoinLast, Payload: append(wire.NewBuffer().PutString(mc.id).Bytes(), signed...)})
		f.sentLast = true
	}
	if f.wrapStar != nil && f.kDH.Order() != nil {
		kStar, err := mc.unwrapKey(g.Key, f.wrapStar, f.u1, nil)
		if err != nil {
			return outs, nil, err
		}
		// The joiner's only view of the ring's z and t is the state
		// tables: binding them to the wrap under K_DH, which only the
		// joiner shares, authenticates them.
		tables := encodeStateTables(g)
		fwd, err := mc.wrapKey(f.kDH, kStar, tables)
		if err != nil {
			return outs, nil, err
		}
		outs = append(outs, mc.withTables(MsgJoinFwd, f.joiner, fwd, tables))
		evts, err := f.commit(kStar, f.kDH, g.R)
		return outs, evts, err
	}
	return outs, nil, nil
}

// advanceOrdinary: decrypt both broadcasts under the old group key and
// commit. The joiner's z is read (unverified, per the paper's op counts)
// from its round-1 broadcast.
func (f *joinFlow) advanceOrdinary() ([]Outbound, []Event, error) {
	mc := f.mc
	if f.m1Sig == nil || f.wrapStar == nil || f.lastSig == nil {
		return nil, nil, nil
	}
	kStar, err := mc.unwrapKey(f.base.Key, f.wrapStar, f.u1, nil)
	if err != nil {
		return nil, nil, err
	}
	kDH, err := mc.unwrapKey(f.base.Key, f.wrapDH, f.un, nil)
	if err != nil {
		return nil, nil, err
	}
	evts, err := f.commit(kStar, kDH, f.base.R)
	return nil, evts, err
}

// commit builds the member's new session: K' = K* · K_DH (equation 6)
// over the extended ring, recording the joiner's z. Members carry their
// old z/t tables forward; the joiner ingests the tables U_n forwarded.
func (f *joinFlow) commit(kStar, kDH, r mathx.Scalar) ([]Event, error) {
	key, err := f.mc.groupKey(new(big.Int).Mul(kStar.BigVarTime(), kDH.BigVarTime()))
	if err != nil {
		return nil, err
	}
	g := f.mc.newGroup(f.newRoster)
	g.R = r
	g.zs.Load(g.Position(f.joiner), f.zJoin)
	g.Key = key
	if f.role == jrJoiner {
		if err := f.mc.ingestStateTables(g, f.fwdTables); err != nil {
			return nil, err
		}
	} else {
		g.Tau = f.base.Tau
		g.copyViews(f.base, 0)
	}
	return []Event{{Kind: EventEstablished, Group: g}}, nil
}
