package serve

import (
	"errors"
	"fmt"
	"time"

	"idgka/internal/metrics"
)

// ErrOverloaded classifies Start calls shed by admission control: the
// target shard's queue crossed a configured lag watermark (or the group
// exceeded its fair share of a pressured shard), so the host refuses to
// take on a NEW establishment rather than let the backlog grow without
// bound. In-flight protocol traffic is never dropped — load shedding
// happens at admission, not delivery — so every already-admitted run
// still completes. Match with errors.Is; the concrete *OverloadError
// carries the shard's observed state for logs and retry policy.
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError is the typed rejection admission control returns from
// Host.Start. Callers shed load upstream (back off, fail the request,
// try another host); the run was never registered, so retrying later
// under the same session id is always safe.
type OverloadError struct {
	// Member and SID identify the rejected start.
	Member string
	SID    string
	// Shard is the dispatch lane the member hashes onto; Depth and Age
	// are its queue depth and oldest-task age at the admission check.
	Shard int
	Depth int
	Age   time.Duration
	// Reason names the watermark that tripped: "queue-depth",
	// "queue-age" or "group-fairness".
	Reason string
}

// Error renders the rejection with the shard state that caused it.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: start %s/%s shed (%s): shard %d at depth %d, oldest %v",
		e.Member, e.SID, e.Reason, e.Shard, e.Depth, e.Age.Round(time.Microsecond))
}

// Is lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// The serve layer's process-wide metrics surface; every name is
// documented in the docs/OPERATIONS.md reference table (a meta-test
// keeps the two in lockstep).
var (
	mStarts     = metrics.NewCounter("serve_starts_total")
	mSheds      = metrics.NewCounter("serve_sheds_total")
	mDelivered  = metrics.NewCounter("serve_delivered_total")
	mSendErrors = metrics.NewCounter("serve_send_errors_total")
	mLiveRuns   = metrics.NewGauge("serve_live_runs")
	mQueueDepth = metrics.NewGauge("serve_queue_depth")
	mQueuePeak  = metrics.NewGauge("serve_queue_peak_depth")
	mQueueDelay = metrics.NewHistogram("serve_queue_delay_ms")
	mTimeToKey  = metrics.NewHistogram("serve_time_to_key_ms")
)

// admit is the admission-control gate Start runs BEFORE any session
// state is created: with watermarks configured, a Start aimed at a shard
// whose queue depth or queue age crossed its high watermark is rejected
// with a *OverloadError, and under pressure (half a watermark) a group
// already holding more than its fair share of the shard's live runs is
// rejected first — one giant group cannot starve the shard's other
// sessions of admission. Delivered traffic is never shed: a bounded
// queue would deadlock loopback transports, so the bound is applied to
// new establishments only.
func (h *Host) admit(hm *hostMember, sid string) error {
	maxQ, maxAge := h.cfg.MaxShardQueue, h.cfg.MaxShardQueueAge
	if maxQ <= 0 && maxAge <= 0 {
		return nil
	}
	depth, age := hm.sh.pressure(time.Now())
	reason := ""
	switch {
	case maxQ > 0 && depth >= maxQ:
		reason = "queue-depth"
	case maxAge > 0 && age >= maxAge:
		reason = "queue-age"
	default:
		pressured := (maxQ > 0 && 2*depth >= maxQ) || (maxAge > 0 && 2*age >= maxAge)
		if pressured {
			runs, group := hm.sh.groupLoad(sid)
			// Fairness bites only when OTHER groups hold runs on this
			// shard — with nobody to starve, a lone group may fill it.
			if runs > group && group+1 > fairLimit(runs+1, fairShare) {
				reason = "group-fairness"
			}
		}
	}
	if reason == "" {
		return nil
	}
	h.sheds.Add(1)
	mSheds.Inc()
	return &OverloadError{
		Member: hm.mb.ID(), SID: sid, Shard: hm.sh.idx,
		Depth: depth, Age: age, Reason: reason,
	}
}

// fairShare is the fraction of a pressured shard's live runs one group
// (session id) may hold before its new Starts are shed ahead of everyone
// else's; pressure begins at half a configured watermark.
const fairShare = 0.5

// fairLimit is the most live runs one group may hold of a pressured
// shard's total: the given share, never below one run.
func fairLimit(total int, share float64) int {
	limit := int(share * float64(total))
	if limit < 1 {
		limit = 1
	}
	return limit
}
