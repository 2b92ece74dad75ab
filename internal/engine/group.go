package engine

import (
	"math/big"
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
	// Z holds the latest z_j seen for each member (own included).
	Z map[string]*big.Int
	// T holds the latest GQ commitment image t_j for each member.
	T map[string]*big.Int
	// Key is the current group key K, below p.
	Key mathx.Scalar
}

// NewGroup builds an empty group view over the given ring order.
func NewGroup(roster []string) *Group {
	g := &Group{
		Roster: append([]string(nil), roster...),
		pos:    make(map[string]int, len(roster)),
		Z:      map[string]*big.Int{},
		T:      map[string]*big.Int{},
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

// Controller returns the trusted controller U_1.
func (g *Group) Controller() string { return g.Roster[0] }

// Last returns U_n, the closing member of the ring.
func (g *Group) Last() string { return g.Roster[len(g.Roster)-1] }

// ringEquals reports whether the group's roster is exactly the given
// ring, in order. Dynamic flows use it to reject a base session whose
// committed ring does not match the roster the flow was started with —
// the symptom of keying off the wrong group.
func (g *Group) ringEquals(ring []string) bool {
	return slices.Equal(g.Roster, ring)
}

// Neighbor returns the id at offset d from position i around the ring.
func (g *Group) Neighbor(i, d int) string {
	n := len(g.Roster)
	return g.Roster[((i+d)%n+n)%n]
}

// copyTables copies the z/t views of src into g without overwriting
// entries g already holds.
func (g *Group) copyTables(src *Group) {
	for id, z := range src.Z {
		if _, have := g.Z[id]; !have {
			g.Z[id] = z
		}
	}
	for id, t := range src.T {
		if _, have := g.T[id]; !have {
			g.T[id] = t
		}
	}
}

// encodeStateTables serialises the (id, z, t) view a group holds so it can
// be shipped to joiners and across merged groups. The paper leaves this
// state acquisition unspecified (its Leave protocol assumes every member
// knows every z_i and t_i); the transfer bytes are metered separately as
// state traffic. Entries with neither z nor t are skipped.
func encodeStateTables(g *Group) []byte {
	buf := wire.NewBuffer()
	var ids []string
	for _, id := range g.Roster {
		if g.Z[id] != nil || g.T[id] != nil {
			ids = append(ids, id)
		}
	}
	buf.PutUint(uint64(len(ids)))
	for _, id := range ids {
		buf.PutString(id)
		buf.PutBig(g.Z[id])
		buf.PutBig(g.T[id])
	}
	return buf.Bytes()
}
