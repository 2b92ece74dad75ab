#!/usr/bin/env bash
# Gates a change on the repository's benchmark: runs gkaperf (declared in
# BENCHMARK.json) on a base commit and on the checked-out commit, and
# fails when the change is worse.
#
#   bash .github/bench-compare.sh <base-ref> [<pairs> [<out.json>]]
#
# The base commit is extracted with git archive into a temporary
# directory outside the repository and removed on exit. For every
# workload in BENCHMARK.json the script runs <pairs> pairs (default 3,
# seeds 1 to <pairs>) of
#
#   bash <tree>/gkaperf/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
#
# one run per tree and pair, both with the pair's fixed seed, alternating
# which tree runs first. It fails when
#   - a run exits non-zero or its result line is not "correct";
#   - the change fails a larger share of operations than the base;
#   - for any end_to_end metric, the change's median is worse than the
#     base's median by more than the metric's relative bound.
# Run length, workloads and bounds all come from BENCHMARK.json. For
# every end_to_end metric it also prints each pair's change/base ratio,
# the number of pairs the change wins and the base's interquartile
# range. With <out.json> it writes every pair's result lines, the
# commits, seeds, run length, Go version, GOMAXPROCS and CPU flags there
# (the BENCH_<n>.json trajectory schema). The change is recorded as
# HEAD's commit and, when the working tree differs from HEAD, also as
# change_tree, the tree id of the measured checkout with its untracked
# files.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: bash .github/bench-compare.sh <base-ref> [<pairs> [<out.json>]]" >&2
	exit 2
fi
change="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$change" rev-parse --verify "$1^{commit}")"
pairs="${2:-3}"
out_json="${3:-}"
if ! [ "$pairs" -ge 1 ] 2>/dev/null; then
	echo "bench-compare: <pairs> must be a positive integer, got $pairs" >&2
	exit 2
fi
if [ -n "$out_json" ]; then
	out_json="$(cd "$(dirname "$out_json")" && pwd)/$(basename "$out_json")"
fi
spec="$change/BENCHMARK.json"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
base="$work/base"
mkdir -p "$base"
git -C "$change" archive "$base_sha" | tar -x -C "$base"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
seeds=($(seq 1 "$pairs"))
change_sha="$(git -C "$change" rev-parse HEAD)"
# The measured checkout's tree, untracked files included, written through
# a throwaway index so that the real index stays untouched. It is
# recorded only when it differs from HEAD's.
tree_git() { GIT_INDEX_FILE="$work/index" git -C "$change" "$@"; }
tree_git read-tree HEAD
tree_git add -A
change_tree="$(tree_git write-tree)"
if [ "$change_tree" = "$(git -C "$change" rev-parse 'HEAD^{tree}')" ]; then
	change_tree=""
fi

echo "bench-compare: base $base_sha, change $change_sha${change_tree:+ (tree $change_tree)}, ${seconds}s per run, ${pairs} pairs"
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

python3 - "$spec" "$work/results" "$base_sha" "$change_sha" "$change_tree" "$seconds" "$out_json" "${seeds[@]}" <<'EOF'
import json, statistics, subprocess, sys
spec = json.load(open(sys.argv[1]))
results, base_sha, change_sha, change_tree, seconds, out_json = sys.argv[2:8]
seeds = sys.argv[8:]
bad = []
trajectory = []
for w in (w["name"] for w in spec["workloads"]):
    runs = {side: [json.load(open("%s/%s.%s.%s.json" % (results, w, side, s))) for s in seeds]
            for side in ("base", "change")}
    for i, s in enumerate(seeds):
        trajectory.append({"workload": w, "seed": int(s), "first": "base" if i % 2 == 0 else "change",
                           "base": runs["base"][i], "change": runs["change"][i]})
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
        pv = [(r["metrics"][name]["value"], q["metrics"][name]["value"]) for r, q in zip(runs["base"], runs["change"])]
        wins = sum(1 for bv, cv in pv if (cv < bv if m["better"] == "lower" else cv > bv))
        bq = statistics.quantiles([bv for bv, _ in pv], n=4, method="inclusive") if len(pv) > 1 else [pv[0][0]] * 3
        print("%-12s %-18s pairs change/base %s  change better in %d/%d  base IQR %.6g"
              % (w, name, " ".join("%.3f" % (cv / bv) if bv else "n/a" for bv, cv in pv), wins, len(pv), bq[2] - bq[0]))
        if verdict != "ok":
            bad.append("%s %s: change median %.6g is worse than base %.6g by more than %.0f%%"
                       % (w, name, c, b, 100 * bound))
if out_json:
    def cmd(*args):
        return subprocess.run(args, capture_output=True, text=True).stdout.strip()
    header = open("%s/%s.change.%s.stdout" % (results, spec["workloads"][0]["name"], seeds[0])).readline().split()
    fields = dict(f.split("=", 1) for f in header if "=" in f)
    flags = set()
    for line in open("/proc/cpuinfo"):
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            break
    head = {
        "description": "gkaperf result lines of every workload, base and change, one run each per pair, from .github/bench-compare.sh.",
        "command": "bash gkaperf/run.sh --workload W --seed S --seconds %s --trace 0" % seconds,
        "base": base_sha,
        "change": change_sha,
    }
    if change_tree:
        head["change_tree"] = change_tree
    json.dump({
        **head,
        "seeds": [int(s) for s in seeds],
        "seconds": float(seconds),
        "trace": 0,
        "go_version": fields.get("go", cmd("go", "env", "GOVERSION")),
        "gomaxprocs": int(fields.get("gomaxprocs", "0")),
        "cpu_flags": {f: f in flags for f in ("adx", "bmi2", "avx512f", "avx512ifma", "avx512vl")},
        "pairs": trajectory,
    }, open(out_json, "w"), indent=1)
    print("bench-compare: wrote %s" % out_json)
if bad:
    print("bench-compare: FAIL")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("bench-compare: PASS")
EOF
