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
	oldRoster []string
	newRoster []string
	joiner    string
	u1, un    string
	role      int

	// Own secrets.
	rJoin  *big.Int // joiner: fresh exponent r_{n+1}
	rPrime *big.Int // U_1: fresh exponent r'_1
	kDH    *big.Int // joiner and U_n: DH bridge key
	kStar  *big.Int // K* once known (computed or unwrapped)
	kDHDec *big.Int // U_1 / ordinary: K_DH unwrapped from m''_n

	// Learned from traffic.
	zJoin      *big.Int      // z_{n+1} from m_{n+1}
	m1Sig      *gq.Signature // σ_{n+1} (verified by U_1 and U_n only)
	wrapStar   []byte        // E_K(K*‖U_1) from m'_1
	wrapDH     []byte        // E_K(K_DH‖U_n) from m''_n
	znFromLast *big.Int      // z_n as claimed in m''_n (joiner verifies)
	lastSig    *gq.Signature // σ'_n from m''_n (joiner verifies)
	fwdWrapped []byte        // E_{K_DH}(K*‖U_n) from m'''_n
	fwdTables  []byte        // state tables appended to m'''_n

	started, verifiedM1, sentCtl, sentLast, sentFwd bool
	haveM1, haveLast, haveFwd                       bool
	seen                                            map[string]bool
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
		oldRoster: append([]string(nil), oldRoster...),
		newRoster: append(append([]string(nil), oldRoster...), joiner),
		joiner:    joiner,
		u1:        oldRoster[0],
		un:        oldRoster[len(oldRoster)-1],
		seen:      map[string]bool{},
	}
	switch mc.id {
	case joiner:
		f.role = jrJoiner
	case f.u1:
		f.role = jrController
	case f.un:
		f.role = jrLast
	default:
		f.role = jrOrdinary
		found := false
		for _, id := range oldRoster {
			if id == mc.id {
				found = true
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("engine: %s neither in ring nor joining", mc.id)
		}
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
	return mc.start(sid, f)
}

func (f *joinFlow) deliver(msg *netsim.Message) error {
	key := msg.Type + "|" + msg.From
	if f.seen[key] {
		return nil // duplicate broadcast
	}
	switch msg.Type {
	case MsgJoin1:
		if msg.From != f.joiner {
			return nil // not the advertised joiner; ignore
		}
		f.seen[key] = true
		r := wire.NewReader(msg.Payload)
		id := r.String()
		z := r.Big()
		sig := &gq.Signature{S: r.Big(), C: r.Big()}
		if err := r.Close(); err != nil {
			return Retryable(fmt.Errorf("join round1 from %s: %w", msg.From, err))
		}
		if id != msg.From {
			return Retryable(errors.New("join round1 identity mismatch"))
		}
		f.zJoin = z
		f.m1Sig = sig
		f.haveM1 = true
	case MsgJoinCtl:
		if msg.From != f.u1 {
			return nil
		}
		f.seen[key] = true
		r := wire.NewReader(msg.Payload)
		_ = r.String()
		f.wrapStar = r.Bytes()
		if err := r.Close(); err != nil {
			return Retryable(fmt.Errorf("join round2a from %s: %w", msg.From, err))
		}
	case MsgJoinLast:
		if msg.From != f.un {
			return nil
		}
		f.seen[key] = true
		r := wire.NewReader(msg.Payload)
		_ = r.String()
		f.wrapDH = r.Bytes()
		f.znFromLast = r.Big()
		f.lastSig = &gq.Signature{S: r.Big(), C: r.Big()}
		if err := r.Close(); err != nil {
			return Retryable(fmt.Errorf("join round2b from %s: %w", msg.From, err))
		}
		f.haveLast = true
	case MsgJoinFwd:
		if msg.From != f.un || f.role != jrJoiner {
			return nil
		}
		f.seen[key] = true
		r := wire.NewReader(msg.Payload)
		_ = r.String()
		f.fwdWrapped = append([]byte(nil), r.Bytes()...)
		if r.Err() != nil {
			return Retryable(fmt.Errorf("join round3 from %s: %w", msg.From, r.Err()))
		}
		// The remainder of the payload is the state-table block.
		f.fwdTables = msg.Payload[len(msg.Payload)-r.Remaining():]
		f.haveFwd = true
	}
	return nil
}

// verifyM1 checks the joiner's GQ signature over U_{n+1} ‖ z_{n+1}
// (performed by U_1 and U_n only, per the paper).
func (f *joinFlow) verifyM1() error {
	mc := f.mc
	payload := wire.NewBuffer().PutString(f.joiner).PutBig(f.zJoin).Bytes()
	err := gq.Verify(gq.ParamsFrom(mc.cfg.Set.RSA), f.joiner, payload, f.m1Sig)
	mc.m.SignVer(meter.SchemeGQ, 1)
	if err != nil {
		return Retryable(fmt.Errorf("engine: %s rejects joiner: %w", mc.id, err))
	}
	f.verifiedM1 = true
	return nil
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
	sg := mc.cfg.Set.Schnorr
	var outs []Outbound
	if !f.started {
		r, err := mathx.RandScalar(mc.cfg.rand(), sg.Q)
		if err != nil {
			return nil, nil, err
		}
		f.rJoin = r
		f.zJoin = sg.Exp(r)
		mc.m.Exp(1)
		signed := wire.NewBuffer().PutString(mc.id).PutBig(f.zJoin).Bytes()
		sig, err := mc.sk.Sign(mc.cfg.rand(), signed)
		if err != nil {
			return nil, nil, err
		}
		mc.m.SignGen(meter.SchemeGQ, 1)
		payload := wire.NewBuffer().PutString(mc.id).PutBig(f.zJoin).PutBig(sig.S).PutBig(sig.C).Bytes()
		outs = append(outs, Outbound{Type: MsgJoin1, Payload: payload}) //gkalint:nosid wrapOuts stamps the flow sid on every enveloped outbound
		f.started = true
	}
	if f.haveLast && f.kDH == nil {
		signed := wire.NewBuffer().PutBytes(f.wrapDH).PutBig(f.znFromLast).Bytes()
		if err := gq.Verify(gq.ParamsFrom(mc.cfg.Set.RSA), f.un, signed, f.lastSig); err != nil {
			mc.m.SignVer(meter.SchemeGQ, 1)
			return outs, nil, Retryable(fmt.Errorf("engine: joiner rejects U_n: %w", err))
		}
		mc.m.SignVer(meter.SchemeGQ, 1)
		f.kDH = new(big.Int).Exp(f.znFromLast, f.rJoin, sg.P)
		mc.m.Exp(1)
	}
	if f.haveFwd && f.kDH != nil && f.kStar == nil {
		cipher, err := sym.NewFromBig(f.kDH)
		if err != nil {
			return outs, nil, err
		}
		kStar, err := cipher.UnwrapSecret(f.fwdWrapped, f.un)
		if err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: joiner failed to unwrap K*: %w", err))
		}
		mc.m.Sym(0, 1)
		f.kStar = kStar
		g := f.commit(f.kStar, f.kDH, f.rJoin)
		// Ingest the transferred state tables, then record own z (already
		// present, so table entries cannot overwrite it).
		tr := wire.NewReader(f.fwdTables)
		if err := decodeStateTables(tr, g); err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: joiner state tables: %w", err))
		}
		if err := tr.Close(); err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: joiner state tables: %w", err))
		}
		return outs, []Event{{Kind: EventEstablished, Group: g}}, nil
	}
	return outs, nil, nil
}

// advanceController: on m_{n+1} verify, fold the key into K* with a fresh
// r'_1 (equation 5) and broadcast E_K(K*‖U_1); on m”_n unwrap K_DH and
// commit.
func (f *joinFlow) advanceController() ([]Outbound, []Event, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	g := f.base
	var outs []Outbound
	if f.haveM1 && !f.sentCtl {
		if err := f.verifyM1(); err != nil {
			return nil, nil, err
		}
		z2 := g.Z[g.Neighbor(0, 1)]
		zn := g.Z[g.Last()]
		rPrime, err := mathx.RandScalar(mc.cfg.rand(), sg.Q)
		if err != nil {
			return nil, nil, err
		}
		// K* = K · (z_2·z_n)^{-r_1} · (z_2·z_{n+1})^{r'_1} mod p.
		t1 := new(big.Int).Mul(z2, zn)
		t1.Mod(t1, sg.P)
		t1, err = mathx.ModExp(t1, new(big.Int).Neg(g.R), sg.P)
		if err != nil {
			return nil, nil, err
		}
		t2 := new(big.Int).Mul(z2, f.zJoin)
		t2.Mod(t2, sg.P)
		t2.Exp(t2, rPrime, sg.P)
		mc.m.Exp(2)
		kStar := new(big.Int).Mul(g.Key, t1)
		kStar.Mod(kStar, sg.P)
		kStar.Mul(kStar, t2)
		kStar.Mod(kStar, sg.P)

		cipher, err := sym.NewFromBig(g.Key)
		if err != nil {
			return nil, nil, err
		}
		wrapped, err := cipher.WrapSecret(mc.cfg.rand(), kStar, mc.id)
		if err != nil {
			return nil, nil, err
		}
		mc.m.Sym(1, 0)
		f.rPrime = rPrime
		f.kStar = kStar
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(wrapped).Bytes()
		outs = append(outs, Outbound{Type: MsgJoinCtl, Payload: payload}) //gkalint:nosid wrapOuts stamps the flow sid on every enveloped outbound
		f.sentCtl = true
	}
	if f.haveLast && f.kDHDec == nil {
		cipher, err := sym.NewFromBig(g.Key)
		if err != nil {
			return outs, nil, err
		}
		kDH, err := cipher.UnwrapSecret(f.wrapDH, f.un)
		if err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: U_1 failed to unwrap K_DH: %w", err))
		}
		mc.m.Sym(0, 1)
		f.kDHDec = kDH
	}
	if f.sentCtl && f.kDHDec != nil {
		ng := f.commit(f.kStar, f.kDHDec, f.rPrime) // U_1's exponent becomes r'_1
		return outs, []Event{{Kind: EventEstablished, Group: ng}}, nil
	}
	return outs, nil, nil
}

// advanceLast: on m_{n+1} verify and broadcast the wrapped DH key; on m'_1
// unwrap K*, re-wrap it under the DH key, forward it to the joiner with
// the session state tables, and commit.
func (f *joinFlow) advanceLast() ([]Outbound, []Event, error) {
	mc := f.mc
	sg := mc.cfg.Set.Schnorr
	g := f.base
	var outs []Outbound
	if f.haveM1 && !f.sentLast {
		if err := f.verifyM1(); err != nil {
			return nil, nil, err
		}
		f.kDH = new(big.Int).Exp(f.zJoin, g.R, sg.P)
		mc.m.Exp(1)
		cipher, err := sym.NewFromBig(g.Key)
		if err != nil {
			return nil, nil, err
		}
		wrappedDH, err := cipher.WrapSecret(mc.cfg.rand(), f.kDH, mc.id)
		if err != nil {
			return nil, nil, err
		}
		mc.m.Sym(1, 0)
		znOwn := g.Z[mc.id]
		signed := wire.NewBuffer().PutBytes(wrappedDH).PutBig(znOwn).Bytes()
		sig, err := mc.sk.Sign(mc.cfg.rand(), signed)
		if err != nil {
			return nil, nil, err
		}
		mc.m.SignGen(meter.SchemeGQ, 1)
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(wrappedDH).PutBig(znOwn).
			PutBig(sig.S).PutBig(sig.C).Bytes()
		outs = append(outs, Outbound{Type: MsgJoinLast, Payload: payload}) //gkalint:nosid wrapOuts stamps the flow sid on every enveloped outbound
		f.sentLast = true
	}
	if f.wrapStar != nil && f.kDH != nil && !f.sentFwd {
		cipher, err := sym.NewFromBig(g.Key)
		if err != nil {
			return outs, nil, err
		}
		kStar, err := cipher.UnwrapSecret(f.wrapStar, f.u1)
		if err != nil {
			return outs, nil, Retryable(fmt.Errorf("engine: U_n failed to unwrap K*: %w", err))
		}
		mc.m.Sym(0, 1)
		cipherDH, err := sym.NewFromBig(f.kDH)
		if err != nil {
			return outs, nil, err
		}
		fwd, err := cipherDH.WrapSecret(mc.cfg.rand(), kStar, mc.id)
		if err != nil {
			return outs, nil, err
		}
		mc.m.Sym(1, 0)
		f.kStar = kStar
		// Append U_n's session tables so the joiner learns the group's
		// current z/t state (metered as state transfer; see
		// docs/ARCHITECTURE.md#accounting-conventions).
		tables := encodeStateTables(g)
		payload := wire.NewBuffer().PutString(mc.id).PutBytes(fwd).Bytes()
		payload = append(payload, tables...)
		outs = append(outs, Outbound{To: f.joiner, Type: MsgJoinFwd, Payload: payload, StateLen: len(tables)}) //gkalint:nosid wrapOuts stamps the flow sid on every enveloped outbound
		f.sentFwd = true
		ng := f.commit(f.kStar, f.kDH, g.R)
		return outs, []Event{{Kind: EventEstablished, Group: ng}}, nil
	}
	return outs, nil, nil
}

// advanceOrdinary: decrypt both broadcasts under the old group key and
// commit. The joiner's z is read (unverified, per the paper's op counts)
// from its round-1 broadcast.
func (f *joinFlow) advanceOrdinary() ([]Outbound, []Event, error) {
	mc := f.mc
	if !f.haveM1 || f.wrapStar == nil || !f.haveLast {
		return nil, nil, nil
	}
	cipher, err := sym.NewFromBig(f.base.Key)
	if err != nil {
		return nil, nil, err
	}
	kStar, err := cipher.UnwrapSecret(f.wrapStar, f.u1)
	if err != nil {
		return nil, nil, Retryable(fmt.Errorf("engine: %s failed to unwrap K*: %w", mc.id, err))
	}
	kDH, err := cipher.UnwrapSecret(f.wrapDH, f.un)
	if err != nil {
		return nil, nil, Retryable(fmt.Errorf("engine: %s failed to unwrap K_DH: %w", mc.id, err))
	}
	mc.m.Sym(0, 2)
	g := f.commit(kStar, kDH, f.base.R)
	return nil, []Event{{Kind: EventEstablished, Group: g}}, nil
}

// commit builds the member's new session: K' = K* · K_DH (equation 6) over
// the extended ring, carrying the old z/t tables forward and recording the
// joiner's z.
func (f *joinFlow) commit(kStar, kDH, r *big.Int) *Group {
	sg := f.mc.cfg.Set.Schnorr
	key := new(big.Int).Mul(kStar, kDH)
	key.Mod(key, sg.P)
	g := NewGroup(f.newRoster)
	g.R = r
	if old := f.base; old != nil && f.role != jrJoiner {
		g.Tau = old.Tau
		g.copyTables(old)
	}
	g.Z[f.joiner] = f.zJoin
	g.Key = key
	return g
}
