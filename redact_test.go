package idgka

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/redacttest"
)

// establishSessions keys a ring of n members through the Session API and
// returns its sessions, by identity, and its members.
func establishSessions(t *testing.T, n int) (map[string]*Session, []*Member) {
	t.Helper()
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	roster := make([]string, n)
	members := make([]*Member, n)
	for i := range roster {
		roster[i] = fmt.Sprintf("rd-%02d", i+1)
		if members[i], err = auth.NewMember(roster[i]); err != nil {
			t.Fatal(err)
		}
	}
	sessions := map[string]*Session{}
	for i, mb := range members {
		s, err := mb.NewSession("redact", roster)
		if err != nil {
			t.Fatal(err)
		}
		if s.Key() != nil {
			t.Fatalf("%s: a key before Done", roster[i])
		}
		sessions[roster[i]] = s
	}
	routePackets(t, sessions)
	return sessions, members
}

// TestSessionKeyFresh writes into the slice Key returned and reads the
// key again: every call returns its own bytes.
func TestSessionKeyFresh(t *testing.T) {
	sessions, _ := establishSessions(t, 3)
	s := sessions["rd-01"]
	key := s.Key()
	want := bytes.Clone(key)
	for i := range key {
		key[i] ^= 0xff
	}
	if got := s.Key(); !bytes.Equal(got, want) {
		t.Fatalf("Key after writing into an earlier result: %x, want %x", got, want)
	}
}

// TestRedaction formats an established Session and its Member with every
// verb in every placement and looks for the group key's words.
func TestRedaction(t *testing.T) {
	sessions, members := establishSessions(t, 3)
	key := new(big.Int).SetBytes(sessions["rd-01"].Key())
	redacttest.Check(t, "Session", sessions["rd-01"], key)
	redacttest.Check(t, "Member", members[0], key)
}
