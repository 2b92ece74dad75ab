package engine

import (
	"slices"

	"idgka/internal/mathx"
	"idgka/internal/wire"
)

// Group is the per-member view of an established group: the ring roster,
// the member's own secrets, everything it has learned about peers, and the
// current group key. It is the commit target of every flow; the lockstep
// drivers of internal/core read it through Machine.Group.
type Group struct {
	// Roster is the ring order U_1 … U_n (index 0 is the trusted
	// controller U_1).
	Roster []string
	// pos maps identity to 0-based ring position.
	pos map[string]int
	// R is the member's own Diffie-Hellman exponent r_i.
	R mathx.Scalar
	// Tau is the member's GQ commitment τ_i, retained because the
	// Leave/Partition protocols reuse it for even-indexed survivors; the
	// zero Scalar when the member holds none.
	Tau mathx.Scalar
	// zs and ts hold the latest z_j (over p) and GQ commitment image t_j
	// (over N) seen for each member, own included, in its ring position's
	// slot; an empty slot marks a value not known. Once committed, a
	// group's slots are only read: concurrent flows snapshot it.
	zs, ts mathx.Packed
	// Key is the current group key K, below p.
	Key mathx.Scalar
}

// newGroup builds an empty group view over the given ring order, its
// slots sized for the roster.
func (mc *Machine) newGroup(roster []string) *Group {
	g := &Group{
		Roster: append([]string(nil), roster...),
		pos:    make(map[string]int, len(roster)),
		zs:     mc.cfg.Set.Schnorr.Mont().NewPacked(len(roster)),
		ts:     mc.cfg.Set.RSA.Mont().NewPacked(len(roster)),
	}
	for i, id := range roster {
		g.pos[id] = i
	}
	return g
}

// Position returns the 0-based ring index of an identity, or -1.
func (g *Group) Position(id string) int {
	if p, ok := g.pos[id]; ok {
		return p
	}
	return -1
}

// Size returns the ring size.
func (g *Group) Size() int { return len(g.Roster) }

// Last returns U_n, the closing member of the ring.
func (g *Group) Last() string { return g.Roster[len(g.Roster)-1] }

// ringEquals reports whether the group's roster is exactly the given
// ring, in order. Dynamic flows use it to reject a base session whose
// committed ring does not match the roster the flow was started with —
// the symptom of keying off the wrong group.
func (g *Group) ringEquals(ring []string) bool {
	return slices.Equal(g.Roster, ring)
}

// copyViews copies src's z and t slots into g's from position at on,
// src's ring being g's from there.
func (g *Group) copyViews(src *Group, at int) {
	for i := range src.Roster {
		g.zs.Copy(at+i, src.zs, i)
		g.ts.Copy(at+i, src.ts, i)
	}
}

// encodeStateTables serialises the (id, z, t) view a group holds so it can
// be shipped to joiners and across merged groups. The paper leaves this
// state acquisition unspecified (its Leave protocol assumes every member
// knows every z_i and t_i); the transfer bytes are metered separately as
// state traffic. Entries with neither z nor t are skipped.
func encodeStateTables(g *Group) []byte {
	buf := wire.NewBuffer()
	var known []int
	for i := range g.Roster {
		if g.zs.InRange(i) || g.ts.InRange(i) {
			known = append(known, i)
		}
	}
	buf.PutUint(uint64(len(known)))
	for _, i := range known {
		buf.PutString(g.Roster[i]).PutBytes(g.zs.Bytes(i)).PutBytes(g.ts.Bytes(i))
	}
	return buf.Bytes()
}
