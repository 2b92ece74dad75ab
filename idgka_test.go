package idgka

import (
	"bytes"
	"fmt"
	"testing"
)

func buildPublicGroup(t testing.TB, n int) (*Authority, *Network, []*Member) {
	t.Helper()
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	var members []*Member
	for i := 0; i < n; i++ {
		mb, err := auth.NewMember(fmt.Sprintf("node-%02d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(mb); err != nil {
			t.Fatal(err)
		}
		members = append(members, mb)
	}
	return auth, net, members
}

func TestPublicAPILifecycle(t *testing.T) {
	auth, net, members := buildPublicGroup(t, 4)
	if members[0].GroupKey() != nil {
		t.Fatal("key before establishment")
	}
	if err := Establish(net, members); err != nil {
		t.Fatalf("Establish: %v", err)
	}
	key := members[0].GroupKey()
	for _, mb := range members {
		if !bytes.Equal(mb.GroupKey(), key) {
			t.Fatalf("%s disagrees on key", mb.ID())
		}
		if got := mb.Roster(); len(got) != 4 {
			t.Fatalf("roster %v", got)
		}
	}

	// Join.
	dave, err := auth.NewMember("dave")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(dave); err != nil {
		t.Fatal(err)
	}
	if err := Join(net, members, dave); err != nil {
		t.Fatalf("Join: %v", err)
	}
	group := append(members, dave)
	if bytes.Equal(group[0].GroupKey(), key) {
		t.Fatal("join did not refresh key")
	}
	for _, mb := range group[1:] {
		if !bytes.Equal(mb.GroupKey(), group[0].GroupKey()) {
			t.Fatalf("%s disagrees after join", mb.ID())
		}
	}

	// Leave.
	if err := Leave(net, group, "node-02"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	var remain []*Member
	for _, mb := range group {
		if mb.ID() != "node-02" {
			remain = append(remain, mb)
		}
	}
	for _, mb := range remain[1:] {
		if !bytes.Equal(mb.GroupKey(), remain[0].GroupKey()) {
			t.Fatalf("%s disagrees after leave", mb.ID())
		}
	}

	// Partition.
	if err := Partition(net, remain, []string{"node-03", "dave"}); err != nil {
		t.Fatalf("Partition: %v", err)
	}
}

func TestPublicAPIMerge(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	mk := func(prefix string, k int) []*Member {
		sub := NewNetwork()
		var g []*Member
		for i := 0; i < k; i++ {
			mb, err := auth.NewMember(fmt.Sprintf("%s%d", prefix, i))
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Attach(mb); err != nil {
				t.Fatal(err)
			}
			g = append(g, mb)
		}
		if err := Establish(sub, g); err != nil {
			t.Fatal(err)
		}
		for _, mb := range g {
			if err := net.Attach(mb); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	a := mk("a", 3)
	b := mk("b", 2)
	if err := Merge(net, a, b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	all := append(a, b...)
	for _, mb := range all[1:] {
		if !bytes.Equal(mb.GroupKey(), all[0].GroupKey()) {
			t.Fatalf("%s disagrees after merge", mb.ID())
		}
	}
}

func TestPublicAPIReportsAndEnergy(t *testing.T) {
	_, net, members := buildPublicGroup(t, 3)
	if err := Establish(net, members); err != nil {
		t.Fatal(err)
	}
	r := members[1].Report()
	if r.Exp != 3 {
		t.Fatalf("Exp = %d, want 3", r.Exp)
	}
	model := DefaultEnergyModel()
	j := model.EnergyJ(r)
	if j <= 0 || j > 1 {
		t.Fatalf("per-member energy %.4g J implausible", j)
	}
	sensor := SensorEnergyModel()
	if sensor.EnergyJ(r) <= j {
		t.Fatal("sensor radio should cost more than WLAN")
	}
	members[1].ResetReport()
	if members[1].Report().Exp != 0 {
		t.Fatal("ResetReport failed")
	}
	msgs, _ := net.Totals()
	if msgs != 6 { // 2 per member
		t.Fatalf("network totals %d msgs, want 6", msgs)
	}
}

func TestEstablishValidation(t *testing.T) {
	_, net, members := buildPublicGroup(t, 2)
	if err := Establish(nil, members); err == nil {
		t.Fatal("nil network accepted")
	}
	if err := Establish(net, members[:1]); err == nil {
		t.Fatal("singleton accepted")
	}
}

// TestLockstepHelpersRejectNilInputs: every lockstep helper returns an
// error, rather than panicking, on a nil network, a nil member in any
// group, or a nil joiner.
func TestLockstepHelpersRejectNilInputs(t *testing.T) {
	_, net, g := buildPublicGroup(t, 4)
	withNil := []*Member{g[0], nil, g[2]}
	cases := []struct {
		name string
		run  func() error
	}{
		{"Establish/nil network", func() error { return Establish(nil, g) }},
		{"Establish/nil member", func() error { return Establish(net, withNil) }},
		{"Join/nil network", func() error { return Join(nil, g[:3], g[3]) }},
		{"Join/nil member", func() error { return Join(net, withNil, g[3]) }},
		{"Join/nil joiner", func() error { return Join(net, g[:3], nil) }},
		{"Leave/nil network", func() error { return Leave(nil, g, g[1].ID()) }},
		{"Leave/nil member", func() error { return Leave(net, withNil, g[2].ID()) }},
		{"Partition/nil network", func() error { return Partition(nil, g, []string{g[1].ID()}) }},
		{"Partition/nil member", func() error { return Partition(net, withNil, []string{g[2].ID()}) }},
		{"Merge/nil network", func() error { return Merge(nil, g[:2], g[2:]) }},
		{"Merge/nil member in A", func() error { return Merge(net, withNil, g[3:]) }},
		{"Merge/nil member in B", func() error { return Merge(net, g[3:], withNil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestStrictConfigMember(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	var members []*Member
	for i := 0; i < 4; i++ {
		mb, err := auth.NewMemberWithConfig(fmt.Sprintf("s%d", i), Config{StrictNonceRefresh: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(mb); err != nil {
			t.Fatal(err)
		}
		members = append(members, mb)
	}
	if err := Establish(net, members); err != nil {
		t.Fatal(err)
	}
	if err := Leave(net, members, "s2"); err != nil {
		t.Fatalf("strict leave: %v", err)
	}
}

// TestAcceleratedConfigMember checks the deprecated Precompute knob is
// inert: a group mixing members built with and without it establishes,
// re-keys and agrees.
func TestAcceleratedConfigMember(t *testing.T) {
	auth, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork()
	var members []*Member
	for i := 0; i < 4; i++ {
		cfg := Config{}
		if i%2 == 0 {
			cfg = Config{Precompute: true}
		}
		mb, err := auth.NewMemberWithConfig(fmt.Sprintf("x%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(mb); err != nil {
			t.Fatal(err)
		}
		members = append(members, mb)
	}
	if err := Establish(net, members); err != nil {
		t.Fatal(err)
	}
	key := members[0].GroupKey()
	for _, mb := range members[1:] {
		if !bytes.Equal(mb.GroupKey(), key) {
			t.Fatalf("%s disagrees on the key", mb.ID())
		}
	}
	if err := Leave(net, members, "x1"); err != nil {
		t.Fatalf("leave: %v", err)
	}
}
