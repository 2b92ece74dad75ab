package main

import (
	"math"
	"testing"
)

func TestAttributeSelfTime(t *testing.T) {
	// root [0,100): A [10,60) with child B [20,40); C [50,80) overlaps A's
	// tail from another goroutine at the same depth; D [90,120) runs past
	// the root's end and is clipped.
	root := span{ID: 1, Name: rootName, Start: 0, End: 100}
	spans := []span{
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 80},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
	}
	self, incl := attribute(spans, root)
	// a keeps [10,20) and [40,50); on [50,60) a and c are both at depth 1
	// and c started later, so c wins.
	want := map[string]int64{"a": 20, "b": 20, "c": 30, "d": 10, rootName: 20}
	var sum int64
	for name, d := range self {
		sum += d
		if d != want[name] {
			t.Errorf("self[%s] = %d, want %d", name, d, want[name])
		}
	}
	if sum != root.End-root.Start {
		t.Errorf("self times sum to %d, want the root's %d", sum, root.End-root.Start)
	}
	// Inclusive: a covers its own self time plus its child b.
	if incl["a"] != 40 || incl["b"] != 20 || incl["c"] != 30 {
		t.Errorf("incl = %v, want a=40 b=20 c=30", incl)
	}
}

func TestAttributeNoSpans(t *testing.T) {
	self, incl := attribute(nil, span{ID: 1, Start: 5, End: 9})
	if self[rootName] != 4 || len(incl) != 0 {
		t.Errorf("empty op: self=%v incl=%v, want all 4 ns in the residue", self, incl)
	}
}

func TestTracerSharesSumToOne(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		o := tr.open("sid")
		s0 := tr.now()
		id := tr.newID()
		tr.put(o, spanSessionStart, 0, id, s0+1, s0+2)
		tr.put(o, spanServeStart, id, 0, s0, s0+3)
		tr.addSID("sid", spanServeDeliver, 0, 0, s0)
		tr.addSID("unknown", spanServeDeliver, 0, 0, s0)
		tr.close(o, s0)
	}
	sum := 0.0
	for _, sm := range shareMetrics {
		sum += tr.share(sm.span)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(tr.durs[spanServeStart]) != 3 || tr.dropped != 3 {
		t.Errorf("count=%d dropped=%d, want 3 and 3", len(tr.durs[spanServeStart]), tr.dropped)
	}
	if tr.inclShare(spanServeStart) < tr.share(spanServeStart) {
		t.Error("inclusive share below self share")
	}
	if len(tr.bySID) != 0 {
		t.Error("closed ops left session ids bound")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	o := tr.open("sid")
	tr.add(o, "x", tr.newID(), 0, tr.now())
	tr.addSID("sid", "x", 0, 0, 0)
	tr.close(o, 0)
	if err := tr.writeSpans("unused"); err != nil {
		t.Fatal(err)
	}
}
