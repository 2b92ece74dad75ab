package main

import (
	"strings"
	"testing"
)

// TestParseCrash covers the -crash flag grammar.
func TestParseCrash(t *testing.T) {
	if v, ph, err := parseCrash("node-02@confirmed"); err != nil || v != "node-02" || ph != "confirmed" {
		t.Fatalf("parseCrash: %q %q %v", v, ph, err)
	}
	for _, bad := range []string{"node-02", "@confirmed", "node-02@", "node-02@nope"} {
		if _, _, err := parseCrash(bad); err == nil {
			t.Errorf("parseCrash(%q) accepted", bad)
		}
	}
	if v, ph, err := parseCrash(""); err != nil || v != "" || ph != "" {
		t.Fatalf("empty -crash: %q %q %v", v, ph, err)
	}
}

// TestParseOwn covers the -own flag grammar.
func TestParseOwn(t *testing.T) {
	ids := []string{"node-01", "node-02", "node-03"}
	got, err := parseOwn("node-03, node-01", ids)
	if err != nil || len(got) != 2 || got[0] != "node-01" || got[1] != "node-03" {
		t.Fatalf("parseOwn: %v %v", got, err)
	}
	if _, err := parseOwn("node-09", ids); err == nil {
		t.Fatal("unknown id accepted")
	}
	if got, err := parseOwn("", ids); err != nil || len(got) != 3 {
		t.Fatalf("default own: %v %v", got, err)
	}
}

// TestPlanFlags covers the one place the flags are validated, before any
// node attaches, and the scenario row each accepted combination selects.
func TestPlanFlags(t *testing.T) {
	event := config{n: 4, groups: 1, mode: "event", dynamic: true}
	with := func(f func(c *config)) config {
		c := event
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name    string
		c       config
		wantErr string
		ids     int
		flows   string
		joiner  string
		out     string
	}{
		{name: "lifecycle", c: event, ids: 5, flows: "establish join leave", joiner: "node-05", out: "node-02"},
		{name: "establish", c: with(func(c *config) { c.dynamic = false }), ids: 4, flows: "establish"},
		{name: "many groups", c: with(func(c *config) { c.n, c.groups = 3, 6 }), ids: 4, flows: "establish join leave", joiner: "node-04", out: "node-02"},
		{name: "crash", c: with(func(c *config) { c.crash = "node-04@confirmed" }), ids: 4, flows: "establish leave", out: "node-04"},
		{name: "lockstep", c: with(func(c *config) { c.mode = "lockstep" }), ids: 4, flows: "establish"},
		{name: "crash n=2", c: with(func(c *config) { c.n, c.crash = 2, "node-02@confirmed" }), wantErr: "-n >= 3"},
		{name: "n=1", c: with(func(c *config) { c.n = 1 }), wantErr: "-n must be >= 2"},
		{name: "groups 0", c: with(func(c *config) { c.groups = 0 }), wantErr: "-groups must be >= 1"},
		{name: "unknown mode", c: with(func(c *config) { c.mode = "async" }), wantErr: "unknown -mode"},
		{name: "lockstep crash", c: with(func(c *config) { c.mode, c.crash = "lockstep", "node-02@confirmed" }), wantErr: "need -mode event"},
		{name: "lockstep own", c: with(func(c *config) { c.mode, c.own = "lockstep", "node-01" }), wantErr: "need -mode event"},
		{name: "lockstep connect", c: with(func(c *config) { c.mode, c.connect = "lockstep", "127.0.0.1:1" }), wantErr: "need -mode event"},
		{name: "lockstep groups", c: with(func(c *config) { c.mode, c.groups = "lockstep", 2 }), wantErr: "need -mode event"},
		{name: "bad crash", c: with(func(c *config) { c.crash = "node-02@never" }), wantErr: "-crash phase"},
		{name: "unknown victim", c: with(func(c *config) { c.crash = "node-09@confirmed" }), wantErr: "not one of"},
		{name: "unknown own", c: with(func(c *config) { c.own = "node-09" }), wantErr: "not one of"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids, own, sc, err := tc.c.plan()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var flows []string
			for _, f := range sc.flows {
				flows = append(flows, string(f))
			}
			if len(ids) != tc.ids || len(own) != tc.ids || len(sc.roster) != tc.c.n ||
				strings.Join(flows, " ") != tc.flows || sc.joiner != tc.joiner || sc.out != tc.out {
				t.Fatalf("plan = ids %v own %v roster %v flows %v joiner %q out %q",
					ids, own, sc.roster, flows, sc.joiner, sc.out)
			}
		})
	}
}
