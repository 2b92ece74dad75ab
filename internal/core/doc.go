// Package core implements the paper's contribution — the two-round
// ID-based authenticated group key agreement of Section 4 and the four
// dynamic protocols of Section 7 (Join, Leave, Merge, Partition) — as
// lockstep drivers over the event-driven protocol engine of
// internal/engine.
//
// Each participant is one *engine.Machine (the per-member protocol state
// machine); the drivers (RunInitial, RunJoin, RunLeave, RunPartition,
// RunMerge, ConfirmKey) start the same flow on every machine and then
// pump delivered messages between them over a netsim.Medium until every
// machine commits, running per-member computation concurrently (one
// goroutine per member, as the nodes would compute in the field). Each
// run keys its flow under a fresh session id. The medium models the
// paper's radio: the engine envelopes every payload with its session id
// and attempt, and the drivers strip that envelope before a message
// reaches the medium and restore it on delivery, so the medium carries
// exactly the paper's messages. The engine meters every operation the
// paper's complexity analysis charges, so the Tables 1–5 reproduction is
// exact. Event-driven deployments (cmd/gkanet, the idgka.Session API,
// netsim's async mode) drive the same engine without these drivers and
// carry the envelope on the wire.
package core
