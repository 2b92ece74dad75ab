package core

import (
	"math/big"
	"testing"

	"idgka/internal/engine"
)

func TestConfirmKeySucceeds(t *testing.T) {
	net, members := buildGroup(t, 4, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	if err := ConfirmKey(net, members); err != nil {
		t.Fatalf("ConfirmKey: %v", err)
	}
}

func TestConfirmKeyDetectsDivergence(t *testing.T) {
	net, members := buildGroup(t, 3, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	// Corrupt one member's key.
	members[1].Group().Key = new(big.Int).Add(members[1].Group().Key, big.NewInt(1))
	if err := ConfirmKey(net, members); err == nil {
		t.Fatal("diverged key passed confirmation")
	}
}

func TestConfirmKeyRequiresSession(t *testing.T) {
	net, members := buildGroup(t, 3, nil)
	if err := ConfirmKey(net, members); err == nil {
		t.Fatal("confirmation without session accepted")
	}
	if err := ConfirmKey(net, nil); err == nil {
		t.Fatal("empty member list accepted")
	}
}

func TestConfirmKeyAfterDynamicEvents(t *testing.T) {
	net, members := buildGroup(t, 5, nil)
	if err := RunInitial(net, members); err != nil {
		t.Fatal(err)
	}
	if err := RunLeave(net, members, members[2].ID()); err != nil {
		t.Fatal(err)
	}
	remain := append(append([]*engine.Machine{}, members[:2]...), members[3:]...)
	if err := ConfirmKey(net, remain); err != nil {
		t.Fatalf("confirmation after leave: %v", err)
	}
}
