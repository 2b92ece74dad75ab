#!/usr/bin/env bash
# Gates a change on the repository's benchmark: runs gkaperf (declared in
# BENCHMARK.json) on a base commit and on the checked-out commit, and
# fails when the change is worse.
#
#   bash .github/bench-compare.sh <base-ref>
#
# The base commit is checked out into a temporary git worktree outside
# the repository and removed on exit. For every workload in
# BENCHMARK.json the script runs three pairs of
#
#   bash <tree>/gkaperf/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
#
# one run per tree and pair, both with the pair's fixed seed, alternating
# which tree runs first. It fails when
#   - a run exits non-zero or its result line is not "correct";
#   - the change fails a larger share of operations than the base;
#   - for any end_to_end metric, the change's median is worse than the
#     base's median by more than the metric's relative bound.
# Run length, workloads and bounds all come from BENCHMARK.json.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-compare.sh <base-ref>" >&2
	exit 2
fi
change="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$change" rev-parse --verify "$1^{commit}")"
spec="$change/BENCHMARK.json"

work="$(mktemp -d)"
base="$work/base"
cleanup() {
	git -C "$change" worktree remove --force "$base" >/dev/null 2>&1 || true
	git -C "$change" worktree prune
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$change" worktree add --quiet --detach "$base" "$base_sha"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
seeds=(1 2 3)

echo "bench-compare: base $base_sha, change $(git -C "$change" describe --always --dirty --abbrev=40), ${seconds}s per run"
mkdir -p "$work/results"

# run SIDE TREE WORKLOAD SEED keeps the run's result line (the last line
# of standard output) as $work/results/WORKLOAD.SIDE.SEED.json.
run() {
	local side=$1 tree=$2 workload=$3 seed=$4
	local out="$work/results/$workload.$side.$seed"
	if ! bash "$tree/gkaperf/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 >"$out.stdout" 2>"$out.stderr"; then
		echo "FAIL: $workload $side seed $seed exited non-zero:" >&2
		tail -n 20 "$out.stderr" >&2
		exit 1
	fi
	tail -n 1 "$out.stdout" >"$out.json"
	python3 - "$out.json" "$workload" "$side" "$seed" <<'EOF'
import json, sys
path, workload, side, seed = sys.argv[1:]
r = json.load(open(path))
ms = " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))
print("%-12s %-6s seed %s: correct=%s failed=%d/%d %s"
      % (workload, side, seed, str(r["correct"]).lower(), r["failed"], r["attempted"], ms))
EOF
}

for workload in $workloads; do
	for i in "${!seeds[@]}"; do
		seed=${seeds[$i]}
		if [ $((i % 2)) -eq 0 ]; then
			run base "$base" "$workload" "$seed"
			run change "$change" "$workload" "$seed"
		else
			run change "$change" "$workload" "$seed"
			run base "$base" "$workload" "$seed"
		fi
	done
done

python3 - "$spec" "$work/results" "${seeds[@]}" <<'EOF'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
results, seeds = sys.argv[2], sys.argv[3:]
bad = []
for w in (w["name"] for w in spec["workloads"]):
    runs = {side: [json.load(open("%s/%s.%s.%s.json" % (results, w, side, s))) for s in seeds]
            for side in ("base", "change")}
    for side, rs in runs.items():
        for s, r in zip(seeds, rs):
            if not r["correct"]:
                bad.append("%s %s seed %s is not correct" % (w, side, s))
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in runs.items()}
    verdict = "ok" if share["change"] <= share["base"] else "WORSE"
    print("%-12s %-18s base %.4g change %.4g  %s" % (w, "failed_share", share["base"], share["change"], verdict))
    if verdict != "ok":
        bad.append("%s failed share %.4g > base %.4g" % (w, share["change"], share["base"]))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med = {side: statistics.median(r["metrics"][name]["value"] for r in rs)
               for side, rs in runs.items()}
        b, c = med["base"], med["change"]
        worse = c - b if m["better"] == "lower" else b - c
        rel = worse / abs(b) if b else (float("inf") if worse > 0 else 0.0)
        verdict = "ok" if rel <= bound else "WORSE"
        print("%-12s %-18s base %.6g change %.6g  %+.1f%% (%s is better, bound %.0f%%)  %s"
              % (w, name, b, c, 100 * (c - b) / abs(b) if b else 0.0, m["better"], 100 * bound, verdict))
        if verdict != "ok":
            bad.append("%s %s: change median %.6g is worse than base %.6g by more than %.0f%%"
                       % (w, name, c, b, 100 * bound))
if bad:
    print("bench-compare: FAIL")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("bench-compare: PASS")
EOF
