// Package waivers pins the central waiver filter for the harness's
// badfunc analyzer: a justified waiver suppresses its finding, a waiver
// that covers no finding is itself reported, and a verb no analyzer of
// the run owns is left alone.
package waivers

//gkalint:badok fixture: a justified waiver suppresses the finding
func Bad() {}

//gkalint:badok covers no finding // want `gkalint:badok waiver suppresses nothing`
func Good() {}

//gkalint:otherok no analyzer of this run owns the verb
func Fine() {}
