// Command gkaload is the serve layer's soak harness: it offers a fixed
// rate of group-lifecycle operations (establish / re-key / join /
// crash-evict mixes) against one in-process Host for a fixed duration and
// reports time-to-key quantiles, admission-control shed rate and the
// queue high-water mark as a schema-2 JSON document (SOAK_*.json).
//
// Usage:
//
//	gkaload -duration 8s -rate 25                  # nominal-rate soak
//	gkaload -rate 200 -queue 64                    # overload against a depth watermark
//	gkaload -duration 8s -rate 25 -max-shed-rate 0 # CI smoke: fail on any shed
//
// Exit status is non-zero when any admitted operation failed, or when
// -max-shed-rate is set (>= 0) and the observed shed rate exceeds it —
// so CI asserts "zero shed at nominal rate" by running the harness alone.
// Every runtime knob the harness forwards is documented in
// docs/OPERATIONS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"idgka/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gkaload: ")
	var (
		pool     = flag.Int("pool", 8, "hosted member pool size")
		group    = flag.Int("group", 3, "ring size per operation")
		shards   = flag.Int("shards", 0, "host dispatch lanes (0 = GOMAXPROCS)")
		rate     = flag.Float64("rate", 25, "offered operation rate, ops/sec")
		duration = flag.Duration("duration", 5*time.Second, "offering window")
		queue    = flag.Int("queue", 0, "admission high watermark on shard queue depth (0 = unbounded)")
		queueAge = flag.Duration("queue-age", 0, "admission high watermark on shard queue age (0 = unbounded)")
		budget   = flag.Duration("op-budget", 30*time.Second, "settle budget per admitted operation")
		maxShed  = flag.Float64("max-shed-rate", -1, "fail (exit 1) when the shed rate exceeds this fraction (<0 disables)")
		out      = flag.String("o", "", "write the JSON report to this file instead of stdout")
	)
	flag.Parse()

	report, err := serve.RunSoak(serve.SoakOptions{
		Pool:             *pool,
		GroupSize:        *group,
		Shards:           *shards,
		Rate:             *rate,
		Duration:         *duration,
		MaxShardQueue:    *queue,
		MaxShardQueueAge: *queueAge,
		OpBudget:         *budget,
	})
	if err != nil {
		log.Fatal(err)
	}

	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(doc)
	}

	fmt.Fprintf(os.Stderr,
		"gkaload: offered %d admitted %d shed %d failed %d | p50 %.1fms p99 %.1fms | peak queue %d\n",
		report.Offered, report.Admitted, report.Shed, report.Failed,
		report.P50MS, report.P99MS, report.PeakQueueDepth)
	if report.Failed > 0 {
		log.Fatalf("%d admitted operations failed", report.Failed)
	}
	if *maxShed >= 0 && report.ShedRate > *maxShed {
		log.Fatalf("shed rate %.3f exceeds -max-shed-rate %.3f", report.ShedRate, *maxShed)
	}
}
