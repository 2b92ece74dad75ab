package engine

import (
	"fmt"
	"math/big"
	"slices"

	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/sym"
	"idgka/internal/wire"
)

// The protocol steps the flows share. Join (Section 7, equations 5-6)
// and Merge (equations 7-9) are built from the same few steps as the
// ring flows' round 1: a fresh blinded exponent, a Diffie-Hellman power,
// the K* fold, E_K(secret‖U) key transport, GQ-signed broadcasts and the
// state-table transfer. Each step lives here once, with its meter charge
// and its failure classification: a fault in a peer's bytes is
// retryable, a fault in the member's own state is not.

// peerReader reads one peer payload under the intake rule of the ring,
// Join and Merge flows: the payload's leading identity must equal the
// sender (openPeer), the flow decodes the remaining fields, and the
// payload must then be consumed exactly (close). A violation is
// retryable. The reader lives on the caller's stack.
type peerReader struct {
	wire.Reader
	typ, from string
}

// openPeer starts reading msg's payload after its identity.
func openPeer(msg netsim.Message) (peerReader, error) {
	r := peerReader{Reader: *wire.NewReader(msg.Payload), typ: msg.Type, from: msg.From}
	if id := r.Bytes(); r.Err() == nil && string(id) != msg.From {
		return r, Retryable(fmt.Errorf("%s identity mismatch: payload %q, sender %q", msg.Type, id, msg.From))
	}
	return r, nil
}

// readPeer is openPeer, read and close in one call, for the Join and Merge
// flows, whose few messages per member need no allocation-free intake.
func readPeer(msg netsim.Message, read func(r *wire.Reader)) error {
	r, err := openPeer(msg)
	if err != nil {
		return err
	}
	read(&r.Reader)
	return r.close()
}

// close checks that the payload decoded cleanly and completely.
func (r *peerReader) close() error {
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("%s from %s: %w", r.typ, r.from, err))
	}
	return nil
}

// checkZ is the intake range check on the blinded exponents a peer sends:
// each must lie in (0, p). Subgroup membership is not checked.
func (mc *Machine) checkZ(msg netsim.Message, zs ...*big.Int) error {
	for _, z := range zs {
		if z.Sign() <= 0 || z.Cmp(mc.cfg.Set.Schnorr.P) >= 0 {
			return Retryable(fmt.Errorf("%s z from %s out of range", msg.Type, msg.From))
		}
	}
	return nil
}

// freshExp draws a fresh exponent r in [1, q-1] and its blinded image
// z = g^r. g^r runs on the generator's comb, a variable-time walk over
// r's bits: the one place a secret exponent leaves its Scalar.
func (mc *Machine) freshExp() (r mathx.Scalar, z *big.Int, err error) {
	sg := mc.cfg.Set.Schnorr
	r, err = mathx.DrawScalar(mc.cfg.rand(), sg.Q)
	if err != nil {
		return mathx.Scalar{}, nil, err
	}
	mc.m.Exp(1)
	return r, sg.Exp(r.BigVarTime()), nil
}

// dhPower returns the Diffie-Hellman key z^r mod p, on the fixed window
// over q's bit length, so its schedule does not depend on r.
func (mc *Machine) dhPower(z *big.Int, r mathx.Scalar) (mathx.Scalar, error) {
	mo := mc.cfg.Set.Schnorr.Mont()
	mc.m.Exp(1)
	return mc.groupKey(mo.FromMont(mo.ExpFixed(mo.ToMont(z), r)))
}

// foldKey computes a controller's K* = K·(z_next·z_last)^{-r}·(z_next·z̃)^{r'}
// mod p in its own ring view g, where it is U_1 (equation 5 for Join,
// equations 7 and 8 for either side of a Merge): it takes out its two
// edges of the old ring and puts in its edges of the new one. z̃ is its
// new neighbour's blinded exponent (the joiner's z_{n+1}, or the other
// ring's closing z in a Merge) and rNew its fresh r'. The public base
// z_next·z_last lies in the order-q subgroup, so its power -r is taken
// as q-r with no field inverse (see docs/ARCHITECTURE.md#deviations),
// and both powers run as one ExpPair call on the fixed window over q's
// bit length.
func (mc *Machine) foldKey(g *Group, zNew *big.Int, rNew mathx.Scalar) (mathx.Scalar, error) {
	mo := mc.cfg.Set.Schnorr.Mont()
	zNext := g.zs.ToMont(1)
	out, in := mo.Mul(zNext, g.zs.ToMont(g.Size()-1)), mo.Mul(zNext, mo.ToMont(zNew))
	pOut, pIn := mo.ExpPair(out, g.R.Neg(), in, rNew)
	mc.m.Exp(2)
	return mc.groupKey(new(big.Int).Mul(g.Key.BigVarTime(), mo.FromMont(mo.Mul(pOut, pIn))))
}

// groupKey returns k mod p as a key: a group key, K* or K_DH.
func (mc *Machine) groupKey(k *big.Int) (mathx.Scalar, error) {
	p := mc.cfg.Set.Schnorr.P
	return mathx.NewScalar(p, k.Mod(k, p))
}

// wrapKey returns E_k(secret‖U), U being this member: the key transport
// of Join and Merge. ad is bound to the ciphertext as AEAD associated
// data, carried beside it rather than in it (nil for none).
func (mc *Machine) wrapKey(k, secret mathx.Scalar, ad []byte) ([]byte, error) {
	c, err := sym.NewFromBig(k.BigVarTime())
	if err != nil {
		return nil, err
	}
	w, err := c.WrapSecret(mc.cfg.rand(), secret.BigVarTime(), mc.id, ad)
	if err != nil {
		return nil, err
	}
	mc.m.Sym(1, 0)
	return w, nil
}

// unwrapKey opens E_k(secret‖from), bound to ad, and returns the secret
// mod p. A ciphertext that does not open under k and ad, or names another
// sender, is retryable.
func (mc *Machine) unwrapKey(k mathx.Scalar, wrapped []byte, from string, ad []byte) (mathx.Scalar, error) {
	c, err := sym.NewFromBig(k.BigVarTime())
	if err != nil {
		return mathx.Scalar{}, err
	}
	secret, err := c.UnwrapSecret(wrapped, from, ad)
	if err != nil {
		return mathx.Scalar{}, Retryable(fmt.Errorf("engine: %s failed to unwrap the key from %s: %w", mc.id, from, err))
	}
	mc.m.Sym(0, 1)
	return mc.groupKey(secret)
}

// sign returns body ‖ s ‖ c: the encoded fields followed by this member's
// GQ signature σ = (s, c) over them.
func (mc *Machine) sign(body []byte) ([]byte, error) {
	sig, err := mc.sk.Sign(mc.cfg.rand(), body)
	if err != nil {
		return nil, err
	}
	mc.m.SignGen(meter.SchemeGQ, 1)
	return append(body, wire.NewBuffer().PutBig(sig.S).PutBig(sig.C).Bytes()...), nil
}

// verify checks signer's GQ signature over the encoded fields body. A bad
// signature is retryable; the verification is charged either way.
func (mc *Machine) verify(signer string, body []byte, sig *gq.Signature) error {
	err := gq.Verify(mc.cfg.Set.RSA, signer, body, sig)
	mc.m.SignVer(meter.SchemeGQ, 1)
	if err != nil {
		return Retryable(fmt.Errorf("engine: %s rejects %s's signature: %w", mc.id, signer, err))
	}
	return nil
}

// readSig reads a signature σ = (s, c) that sign appended.
func readSig(r *wire.Reader) *gq.Signature {
	return &gq.Signature{S: r.Big(), C: r.Big()}
}

// withTables builds the round-3 message U ‖ wrapped ‖ tables of Join and
// Merge: this member's identity, one wrapped key and an
// encodeStateTables block, whose bytes are metered as state transfer
// (see docs/ARCHITECTURE.md#accounting-conventions). An empty to
// broadcasts.
func (mc *Machine) withTables(typ, to string, wrapped, tables []byte) Outbound {
	payload := append(wire.NewBuffer().PutString(mc.id).PutBytes(wrapped).Bytes(), tables...)
	return Outbound{To: to, Type: typ, Payload: payload, StateLen: len(tables)}
}

// ingestStateTables merges a peer's encodeStateTables block into g:
// each entry's z and t decode straight into the member's slots where
// those are empty, and into a spare slot, for their range alone, where g
// already holds a value (existing entries win: the receiver may have
// observed later broadcasts) or the member is not in g's ring. A zero z
// or t marks an absent entry; any other z must lie in (0, p) and any
// other t in (0, N). A malformed block is retryable. The block is
// covered by no signature; Join binds it to its forwarded key wrap as
// associated data, Merge leaves it unauthenticated.
func (mc *Machine) ingestStateTables(g *Group, tables []byte) error {
	spareZ, spareT := mc.cfg.Set.Schnorr.Mont().NewPacked(1), mc.cfg.Set.RSA.Mont().NewPacked(1)
	r := wire.NewReader(tables)
	for i, count := uint64(0), r.Uint(); i < count; i++ {
		id, z, t := r.String(), r.Bytes(), r.Bytes()
		if r.Err() != nil {
			break
		}
		j := g.Position(id)
		if !fillEmpty(g.zs, spareZ, j, z) || !fillEmpty(g.ts, spareT, j, t) {
			return Retryable(fmt.Errorf("engine: state tables: z or t of %s out of range", id))
		}
	}
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("engine: state tables: %w", err))
	}
	return nil
}

// fillEmpty decodes the big-endian value b into slot j of p when j is a
// position whose slot is empty, else into spare's one slot, and reports
// whether b is zero or lies in p's range.
func fillEmpty(p, spare mathx.Packed, j int, b []byte) bool {
	if j < 0 || p.InRange(j) {
		p, j = spare, 0
	}
	return p.LoadBytes(j, b) || isZero(b)
}

// isZero reports whether the big-endian value b is zero.
func isZero(b []byte) bool {
	return !slices.ContainsFunc(b, func(c byte) bool { return c != 0 })
}
