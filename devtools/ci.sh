#!/bin/sh
# Tier-1 verification in one command: build, unit/property tests, then a
# CLI smoke pass — every example must compile, validate, and match the
# sequential interpreter, and every expected failure must surface as a
# structured error (never an uncaught exception).
set -eu

cd "$(dirname "$0")/.."

W2C="dune exec --no-build bin/w2c.exe --"
BENCH="dune exec --no-build bench/main.exe --"
JSONV="dune exec --no-build devtools/jsonv.exe --"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# Every compiler-core, VLIW and utility module states its interface,
# so the unused-value warning sees them whole: a value nothing outside
# the module uses is either hidden or reported dead.
echo "== compiler core interfaces"
missing=""
for f in lib/core/*.ml lib/lang/lower.ml lib/util/*.ml lib/vliw/*.ml; do
  [ -f "${f}i" ] || missing="$missing $f"
done
if [ -n "$missing" ]; then
  echo "FAIL: modules without an interface:$missing"
  exit 1
fi

# Compiled output must not depend on the hash seed: every table under
# lib/ is created with ~random:false, and the suite passes with
# randomized tables as the default.
echo "== dune runtest with OCAMLRUNPARAM=R"
unpinned=$(grep -rn "Hashtbl\.create" lib | grep -v "~random:false" || true)
if [ -n "$unpinned" ]; then
  echo "FAIL: Hashtbl.create without ~random:false under lib/:"
  echo "$unpinned"
  exit 1
fi
OCAMLRUNPARAM=R dune runtest --force

echo "== example smoke: run --validate --verify"
for f in examples/*.w2; do
  echo "   $f"
  $W2C run --validate --verify "$f" >/dev/null
done

# Expected failures: each must exit nonzero with a clean one-line error.
expect_fail() {
  label="$1"; shift
  out=$("$@" 2>&1) && {
    echo "FAIL: $label: expected a nonzero exit"
    echo "$out"
    exit 1
  }
  case "$out" in
  *"Raised at"* | *"Fatal error"* | *backtrace* | *"uncaught exception"*)
    echo "FAIL: $label: uncaught exception leaked:"
    echo "$out"
    exit 1
    ;;
  esac
  echo "   $label: ok"
}

echo "== expect-fail smoke"
expect_fail "missing file" $W2C run devtools/smoke/no_such_file.w2
expect_fail "parse error" $W2C run devtools/smoke/parse_error.w2
expect_fail "cycle limit" $W2C run --max-cycles 5 examples/saxpy.w2
expect_fail "unknown fault site" \
  $W2C run --inject bogus.site@1 examples/saxpy.w2
# runtime faults of the engines: a store one past the array, and a
# float scalar read before it is assigned
expect_fail "out-of-bounds store" \
  $W2C run --validate --verify devtools/smoke/oob_store.w2
expect_fail "unassigned float read" \
  $W2C run --validate --verify devtools/smoke/unassigned_float.w2
# a literal that is no number is a lexical error, not an escaped
# exception; a machine name is warp, toy, serial or warpNx, 1 <= N <= 64
expect_fail "malformed number" $W2C compile devtools/smoke/bad_number.w2
expect_fail "machine name with a suffix" \
  $W2C compile -m warp2xyz examples/saxpy.w2
expect_fail "machine wider than 64" \
  $W2C compile -m warp100000x examples/saxpy.w2

echo "== degradation smoke: injected fault still runs and validates"
$W2C run --validate --verify --inject modsched.place@1 examples/saxpy.w2 \
  >/dev/null

echo "== exact-certifier smoke: bounded --opt exact over the examples"
for f in examples/*.w2; do
  echo "   $f"
  out=$($W2C schedule --opt exact --opt-fuel 200000 "$f")
  case "$out" in
  *"{cert:"*) ;;
  *)
    echo "FAIL: $f: schedule report carries no certificate"
    echo "$out"
    exit 1
    ;;
  esac
done
$W2C run --validate --verify --opt exact --opt-fuel 200000 \
  examples/conv1d.w2 >/dev/null

echo "== portfolio smoke: --opt-portfolio keeps the certificate"
out=$($W2C run --validate --opt exact --opt-fuel 200000 --opt-portfolio 4 \
  examples/saxpy.w2)
case "$out" in
*"cert: optimal"*) ;;
*)
  echo "FAIL: portfolio certification lost the optimality certificate"
  echo "$out"
  exit 1
  ;;
esac
expect_fail "portfolio width 0" \
  $W2C run --opt exact --opt-portfolio 0 examples/saxpy.w2

echo "== exact-search smoke: a certificate that needs a search"
# every examples/*.w2 certifies at its bound for 0 fuel, so the steps
# above never run the exact search nor spawn a portfolio member;
# branch2.w2 (the population program branch2.0) improves on the
# heuristic's interval only through a search
B2=devtools/smoke/branch2.w2
out=$($W2C schedule --opt exact "$B2")
case "$out" in
*"{cert: improved from heuristic ii=16 (exact, "[1-9]*" fuel)}"*) ;;
*)
  echo "FAIL: $B2: expected an improved certificate found by a search"
  echo "$out"
  exit 1
  ;;
esac
$W2C run --validate --verify --opt exact "$B2" >/dev/null
p1=$($W2C compile --opt exact --opt-portfolio 1 "$B2")
p4=$($W2C compile --opt exact --opt-portfolio 4 "$B2")
[ "$p1" = "$p4" ] || {
  echo "FAIL: $B2: listing differs between --opt-portfolio 1 and 4"
  exit 1
}
echo "   $B2: ok"

echo "== observability smoke: --trace/--metrics/--profile artifacts validate"
OBS=$(mktemp -d)
# the daemon smoke below backgrounds a w2cd; make sure an aborted run
# never orphans it (or its socket) alongside the scratch dir
W2CD_PID=""
cleanup() {
  if [ -n "$W2CD_PID" ]; then
    kill "$W2CD_PID" 2>/dev/null || true
  fi
  rm -rf "$OBS"
}
trap cleanup EXIT
$W2C run --validate --trace "$OBS/trace.json" --metrics "$OBS/metrics.json" \
  --profile examples/saxpy.w2 >"$OBS/profile.txt"
$JSONV "$OBS/trace.json" traceEvents/0/name >/dev/null
$JSONV "$OBS/metrics.json" schema_version \
  metrics/modsched.intervals_probed/value \
  metrics/modsched.fuel_spent/value \
  metrics/sim.cycles/value >/dev/null
for phase in compile.parse compile.typecheck compile.lower compile \
  compile.ddg compile.compact compile.mii compile.modsched compile.mve \
  compile.emit compile.validate compile.reduce; do
  grep -q "\"name\":\"$phase\"" "$OBS/trace.json" || {
    echo "FAIL: trace is missing the $phase span"
    exit 1
  }
done
grep -q "mrt occupancy" "$OBS/profile.txt" || {
  echo "FAIL: --profile printed no schedule-quality report"
  exit 1
}
echo "   trace/metrics/profile: ok"

echo "== explain smoke: decision log names the binding constraint"
# cmdliner note: --explain takes an optional value, so it must follow
# the positional FILE argument
$W2C schedule examples/saxpy.w2 --explain >"$OBS/explain.txt"
grep -qE "(resource|recurrence|control)-bound" "$OBS/explain.txt" || {
  echo "FAIL: --explain names no binding constraint"
  cat "$OBS/explain.txt"
  exit 1
}
$W2C schedule examples/saxpy.w2 --explain-json "$OBS/e1.json" >/dev/null
$W2C schedule examples/saxpy.w2 --explain-json "$OBS/e2.json" >/dev/null
$JSONV "$OBS/e1.json" schema_version loops/0/events/0/kind >/dev/null
cmp -s "$OBS/e1.json" "$OBS/e2.json" || {
  echo "FAIL: --explain-json output differs between identical runs"
  exit 1
}
echo "   explain report + byte-stable JSON: ok"

echo "== render smoke: visual artifacts are self-contained"
$W2C run --validate examples/conv1d.w2 --render "$OBS/render" >/dev/null
name=$(basename examples/conv1d.w2 .w2)
test -s "$OBS/render/$name.txt" && test -s "$OBS/render/$name.html" || {
  echo "FAIL: --render wrote no artifacts"
  exit 1
}
grep -q "<svg" "$OBS/render/$name.html" || {
  echo "FAIL: rendered HTML carries no inline SVG"
  exit 1
}
if grep -qE "https?://|<script src|<link" "$OBS/render/$name.html"; then
  echo "FAIL: rendered HTML references external resources"
  exit 1
fi
echo "   render artifacts: ok"

echo "== parallel smoke: -j 8 output byte-identical to -j 1"
# siblings.w2 holds two independent innermost loops, so its -j 8 compile
# runs one of them on a second domain; filterbank.w2 holds four, in a
# listing of over 256 words; the other two are one-loop programs
for f in examples/saxpy.w2 examples/conv1d.w2 examples/siblings.w2 \
  examples/filterbank.w2; do
  # the listing, the decision log, the work-cost profile (deterministic
  # units, so a shard merge at any width reproduces -j 1 exactly) and
  # the per-loop report of a simulated run
  for j in 1 8; do
    $W2C compile "$f" -j "$j" >"$OBS/j$j-compile.txt"
    $W2C schedule "$f" -j "$j" --explain-json "$OBS/j$j-explain.json" >/dev/null
    $W2C schedule "$f" -j "$j" --cost-json "$OBS/j$j-cost.json" >/dev/null
    $W2C run "$f" -j "$j" --profile >"$OBS/j$j-profile.txt"
  done
  for out in compile.txt explain.json cost.json profile.txt; do
    cmp -s "$OBS/j1-$out" "$OBS/j8-$out" || {
      echo "FAIL: $f: $out differs between -j 1 and -j 8"
      exit 1
    }
  done
  # every unit of compile work belongs to a named phase
  if grep -q '"phase": "other"' "$OBS/j1-cost.json"; then
    echo "FAIL: $f: cost profile has work outside every named phase"
    exit 1
  fi
done
echo "   -j determinism: ok"

echo "== bench: the bare run passes, byte-stable and jobs-invariant"
# every table but the two campaign ones; a table that fails its own
# check still writes its artifact, then fails the run
for j in 1 2 8; do
  $BENCH --jobs "$j" --emit-json "$OBS/bench-j$j.json" \
    >"$OBS/bench-j$j.out" || {
    echo "FAIL: bare bench run at --jobs $j failed"
    grep -E "FAILED|DISAGREE|failing|undecided" "$OBS/bench-j$j.out" ||
      tail -20 "$OBS/bench-j$j.out"
    exit 1
  }
done
BARE="$OBS/bench-j1.json"
for j in 2 8; do
  cmp -s "$BARE" "$OBS/bench-j$j.json" || {
    echo "FAIL: bare bench document differs between --jobs 1 and --jobs $j"
    exit 1
  }
done
# hits and rejects are pinned: a hit verifier that wrongly rejected a
# legal replay would only recompile, so the identity checks stay green
$JSONV "$BARE" schema_version generator \
  artifacts/table_4_1/rows/0/0 \
  "artifacts/table_4_1/rows/7/0=matmul (true 10-cell co-sim)" \
  artifacts/table_4_1/rows/7/6=ok \
  artifacts/optimal-learning/schema=bench-optimal-learning/1 \
  artifacts/optimal-learning/loops \
  artifacts/optimal-learning/proven_on \
  artifacts/optimal-learning/disagreements=0 \
  artifacts/pipeline/kernels/0/loops/0/achieved_ii \
  artifacts/cost/schema=bench-cost/1 \
  artifacts/cost/kernels/0/cost/schema=cost/1 \
  artifacts/cost/kernels/0/cost/total \
  artifacts/cost/totals/mrt.probes \
  artifacts/compile_speed/corpus \
  artifacts/compile_speed/identical_across_j=true \
  artifacts/compile_speed/code_size \
  artifacts/compile_speed/loops/0/status \
  artifacts/serve/programs \
  artifacts/serve/identical_cold=true \
  artifacts/serve/identical_warm=true \
  artifacts/serve/cold/hits=58 \
  artifacts/serve/warm/hits=72 \
  artifacts/serve/cold/rejects=0 \
  artifacts/serve/warm/rejects=0 \
  artifacts/slo/schema=bench-slo/1 \
  artifacts/slo/status_schema=w2cd-status/2 \
  artifacts/slo/identical=true \
  artifacts/slo/error_budget_ok=true \
  artifacts/slo/trace_ok=true \
  artifacts/slo/dashboard_ok=true \
  artifacts/slo/series/occupancy/windows/0/count \
  artifacts/slo/span_skeleton/0/request >/dev/null
if grep -qE "FAILED|INVALID" "$BARE"; then
  echo "FAIL: a Table 4-1 row failed or did not validate"
  grep -E "FAILED|INVALID" "$BARE"
  exit 1
fi
# artifacts are pure counts: a wall-clock or GC field leaking in would
# break cross-machine byte-stability
if grep -qE '"(wall_ns|minor_words|seconds|elapsed|time_us)"' "$BARE"; then
  echo "FAIL: a bench artifact carries wall-clock or GC fields"
  exit 1
fi
# a clean pair passes every gate and attributes nothing
$BENCH --compare "$BARE" "$BARE" --attribute >"$OBS/self.out" || {
  echo "FAIL: --compare rejected two identical documents"
  cat "$OBS/self.out"
  exit 1
}
if grep -q "attribution:" "$OBS/self.out"; then
  echo "FAIL: clean pair produced attribution lines"
  exit 1
fi
echo "   20 artifacts at --jobs 1, 2 and 8: ok"

echo "== regression sentinel: fresh pipeline run vs committed profile"
# the compare gate tolerates small moves; the artifact itself must be
# reproduced byte for byte (key order, utilization, attribution)
$BENCH --table pipeline --emit-json "$OBS/pipe.json" >/dev/null
cmp -s BENCH_pipeline.json "$OBS/pipe.json" || {
  echo "FAIL: fresh pipeline artifact differs from BENCH_pipeline.json"
  exit 1
}
echo "   committed profile: ok"

# must_fire LABEL CODE CMD...: CMD must exit with status CODE; its
# output is left in $OBS/fired.out
must_fire() {
  label="$1"
  code="$2"
  shift 2
  rc=0
  "$@" >"$OBS/fired.out" 2>&1 || rc=$?
  [ "$rc" = "$code" ] || {
    echo "FAIL: $label: exit $rc, expected $code"
    cat "$OBS/fired.out"
    exit 1
  }
  echo "   $label: fires"
}

echo "== regression sentinel: injected and doctored regressions must fire"
$BENCH --table pipeline --inject modsched.place@1 \
  --emit-json "$OBS/pipe-bad.json" >/dev/null
must_fire "injected scheduler fault" 1 \
  $BENCH --compare BENCH_pipeline.json "$OBS/pipe-bad.json"
# raise loop 0's achieved II and resource bound in the first kernel:
# --attribute must point at the changed binding constraint
awk '!r && /"res_mii": [0-9]+/ { sub(/"res_mii": [0-9]+/, "\"res_mii\": 99"); r=1 }
     !a && /"achieved_ii": [0-9]+/ { sub(/"achieved_ii": [0-9]+/, "\"achieved_ii\": 99"); a=1 }
     { print }' "$BARE" >"$OBS/doctored.json"
must_fire "doctored pipeline profile" 1 \
  $BENCH --compare "$BARE" "$OBS/doctored.json" --attribute
grep -qE "res_mii rose [0-9]+ -> 99 \(binding" "$OBS/fired.out" || {
  echo "FAIL: attribution did not name the changed binding constraint"
  cat "$OBS/fired.out"
  exit 1
}
sed 's/"identical_cold": true/"identical_cold": false/' "$BARE" \
  >"$OBS/doctored.json"
must_fire "serve identity" 1 $BENCH --compare "$BARE" "$OBS/doctored.json"
sed 's/"identical": true/"identical": false/' "$BARE" >"$OBS/doctored.json"
must_fire "slo identity" 1 $BENCH --compare "$BARE" "$OBS/doctored.json"
# the certifier's artifacts: its configurations agree, learning decides
# every loop, neither search decides fewer, and disabled tracing is free
sed 's/"disagreements": 0/"disagreements": 5/' "$BARE" >"$OBS/doctored.json"
must_fire "learning disagreement" 1 $BENCH --compare "$BARE" "$OBS/doctored.json"
sed 's/"loops": [0-9][0-9]*,/"loops": 99999,/' "$BARE" >"$OBS/doctored.json"
must_fire "learning leaves loops undecided" 1 \
  $BENCH --compare "$BARE" "$OBS/doctored.json"
sed -e 's/"loops": [0-9][0-9]*,/"loops": -1,/' \
  -e 's/"proven_on": [0-9][0-9]*/"proven_on": -1/' "$BARE" >"$OBS/doctored.json"
must_fire "learning decides fewer loops" 1 \
  $BENCH --compare "$BARE" "$OBS/doctored.json"
sed 's/"proven_off": [0-9][0-9]*/"proven_off": -1/' "$BARE" \
  >"$OBS/doctored.json"
must_fire "chronological search decides fewer loops" 1 \
  $BENCH --compare "$BARE" "$OBS/doctored.json"
sed 's/"ok": true/"ok": false/' "$BARE" >"$OBS/doctored.json"
must_fire "trace overhead" 1 $BENCH --compare "$BARE" "$OBS/doctored.json"
# a foreign schema generation is rejected outright, never diffed
sed 's|"schema": "bench-slo/1"|"schema": "bench-slo/9"|' "$BARE" \
  >"$OBS/doctored.json"
must_fire "foreign schema generation" 2 \
  $BENCH --compare "$BARE" "$OBS/doctored.json"
# a failing table records its artifact, then the run exits 1
must_fire "slo under an injected fault" 1 \
  $BENCH --table slo --inject modsched.place@1 --emit-json "$OBS/slo-bad.json"
$JSONV "$OBS/slo-bad.json" artifacts/slo/identical=false >/dev/null

echo "== campaign: clean sweep, byte-stable and jobs-invariant artifact"
$BENCH --table campaign --seeds 1..250 --emit-json "$OBS/camp1.json" \
  >"$OBS/camp1.out" || {
  echo "FAIL: campaign reported failing seeds on a clean tree"
  tail -20 "$OBS/camp1.out"
  exit 1
}
$BENCH --table campaign --seeds 1..250 --jobs 2 \
  --emit-json "$OBS/camp2.json" >/dev/null
$JSONV "$OBS/camp1.json" schema_version \
  artifacts/campaign/total \
  artifacts/campaign/pass \
  artifacts/campaign/verdicts/pass \
  artifacts/campaign/gap/count \
  artifacts/campaign/eff/count \
  artifacts/campaign/code_size/count \
  artifacts/campaign/pass_rate/schema=series/1 \
  artifacts/campaign/pass_rate/windows/0/count \
  artifacts/campaign/unminimized >/dev/null
cmp -s "$OBS/camp1.json" "$OBS/camp2.json" || {
  echo "FAIL: campaign artifact differs between --jobs 1 and --jobs 2"
  exit 1
}
$BENCH --compare "$OBS/camp1.json" "$OBS/camp2.json" >/dev/null || {
  echo "FAIL: campaign gate rejected two identical artifacts"
  exit 1
}
# zero one seed window's pass sum: that window's rate collapses and the
# sentinel must localize the regression to it
awk '/"pass_rate"/ { in_pr = 1 }
     in_pr && /"sum":/ && !done { sub(/"sum": [0-9.]+/, "\"sum\": 0"); done = 1 }
     { print }' "$OBS/camp1.json" >"$OBS/camp-window-bad.json"
cmp -s "$OBS/camp1.json" "$OBS/camp-window-bad.json" && {
  echo "FAIL: pass-rate doctoring changed nothing"
  exit 1
}
must_fire "campaign pass-rate window" 1 \
  $BENCH --compare "$OBS/camp1.json" "$OBS/camp-window-bad.json"

echo "== campaign sentinel: injected faults are caught, minimized, banked"
# modsched.place degrades a loop; exact.nogood corrupts the learned
# nogood bank silently, which only the opt-diverge oracle sees
for case in "modsched.place@1 1..30 degraded" \
  "exact.nogood@1 1..8 opt-diverge"; do
  set -- $case
  mkdir -p "$OBS/bank-$3"
  must_fire "campaign --inject $1" 1 \
    $BENCH --table campaign --seeds "$2" --inject "$1" --bank "$OBS/bank-$3" \
    --emit-json "$OBS/camp-bad.json"
  $JSONV "$OBS/camp-bad.json" "artifacts/campaign/failures/0/kind=$3" \
    >/dev/null
  banked=$(ls "$OBS/bank-$3/$3"_s*.w2 2>/dev/null | head -1)
  test -n "$banked" || {
    echo "FAIL: campaign banked no minimized $3_s*.w2 regression"
    ls -l "$OBS/bank-$3" || true
    exit 1
  }
  grep -q -- "-- camp: inject=$1" "$banked" || {
    echo "FAIL: banked regression does not record its trigger header"
    cat "$banked"
    exit 1
  }
  # the banked reproducer is a valid program: trigger-less it must pass
  $W2C run --validate --verify "$banked" >/dev/null || {
    echo "FAIL: banked regression $banked does not run clean without the fault"
    exit 1
  }
done
echo "   inject -> minimize -> bank -> replay: ok"

echo "== w2cd smoke: daemon round-trip byte-identical to offline w2c"
W2CD=./_build/default/bin/w2cd.exe
SOCK="$OBS/w2cd.sock"
"$W2CD" serve "$SOCK" --cache 128 --log "$OBS/reqlog.jsonl" 2>/dev/null &
W2CD_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: w2cd never created its socket"
    exit 1
  fi
  sleep 0.1
done
"$W2CD" ping "$SOCK" >/dev/null
dune exec --no-build devtools/dump_kernels.exe -- "$OBS/kernels" >/dev/null
mkdir -p "$OBS/offline"
for pass in 1 2; do
  for f in "$OBS"/kernels/*.w2; do
    ref="$OBS/offline/$(basename "$f" .w2).txt"
    "$W2CD" request "$SOCK" "$f" >"$OBS/served.txt"
    if [ "$pass" = 1 ]; then
      $W2C compile "$f" >"$ref" 2>/dev/null
    fi
    cmp -s "$OBS/served.txt" "$ref" || {
      echo "FAIL: $f: daemon output differs from offline w2c (pass $pass)"
      exit 1
    }
  done
done
"$W2CD" stats "$SOCK" >"$OBS/daemon-stats.json"
$JSONV "$OBS/daemon-stats.json" capacity hits misses inserts >/dev/null
hits=$(sed -n 's/.*"hits": \([0-9][0-9]*\).*/\1/p' "$OBS/daemon-stats.json")
test -n "$hits" && test "$hits" -gt 0 || {
  echo "FAIL: second suite pass produced no cache hits"
  cat "$OBS/daemon-stats.json"
  exit 1
}
echo "   round-trip x2 + hit rate: ok"

echo "== w2cd smoke: status, dashboard, traced request, request log"
# the daemon has answered 2 suite passes of compile requests; its health
# snapshot must account for every one of them on the logical clock
K=$(ls "$OBS"/kernels/*.w2 | wc -l | tr -d ' ')
"$W2CD" status "$SOCK" >"$OBS/daemon-status.json"
$JSONV "$OBS/daemon-status.json" \
  schema=w2cd-status/2 \
  telemetry=true \
  "requests/compile=$((2 * K))" \
  error_budget/ok=true \
  series/latency_us/windows/0/count \
  series/occupancy/windows/0/count \
  series/cost/windows/0/count \
  cost/enabled=true \
  "cost/compiles_measured=$((2 * K))" \
  cache/entries >/dev/null
"$W2CD" dashboard "$SOCK" >"$OBS/dash.html"
grep -q "<svg" "$OBS/dash.html" || {
  echo "FAIL: dashboard carries no inline SVG sparkline"
  exit 1
}
if grep -qE "https?://|<script src|<link" "$OBS/dash.html"; then
  echo "FAIL: dashboard references external resources"
  exit 1
fi
# a traced request comes back as a versioned envelope: trace id, the
# request's sequence number (ping + 2K compiles + stats + status +
# dashboard came before it) and the span tree alongside the output
"$W2CD" request "$SOCK" examples/saxpy.w2 --trace ci-1 >"$OBS/traced.json"
$JSONV "$OBS/traced.json" \
  schema=w2cd-trace/1 \
  trace=ci-1 \
  "seq=$((2 * K + 4))" \
  spans/0/name=request \
  output >/dev/null
# every request also landed in the daemon's JSONL log, one line each
test -s "$OBS/reqlog.jsonl" || {
  echo "FAIL: daemon wrote no request log"
  exit 1
}
head -1 "$OBS/reqlog.jsonl" >"$OBS/reqlog-first.json"
$JSONV "$OBS/reqlog-first.json" schema=w2cd-reqlog/1 seq=0 verb lat_us \
  >/dev/null
logged=$(wc -l <"$OBS/reqlog.jsonl" | tr -d ' ')
test "$logged" -eq $((2 * K + 5)) || {
  echo "FAIL: request log has $logged lines, expected $((2 * K + 5))"
  exit 1
}
echo "   status + dashboard + trace envelope + request log: ok"

echo "== w2cd smoke: stale socket reclaimed, clean shutdown unlinks it"
# SIGKILL skips the daemon's cleanup, orphaning the socket file
kill -9 "$W2CD_PID" 2>/dev/null || true
wait "$W2CD_PID" 2>/dev/null || true
test -S "$SOCK" || {
  echo "FAIL: expected an orphaned socket after SIGKILL"
  exit 1
}
"$W2CD" serve "$SOCK" --cache 8 2>/dev/null &
W2CD_PID=$!
i=0
until "$W2CD" ping "$SOCK" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: w2cd did not reclaim the stale socket"
    exit 1
  fi
  sleep 0.1
done
kill "$W2CD_PID" 2>/dev/null || true
wait "$W2CD_PID" 2>/dev/null || true
W2CD_PID=""
if [ -e "$SOCK" ]; then
  echo "FAIL: terminated daemon left its socket behind"
  exit 1
fi
echo "   stale-socket reclaim + cleanup: ok"

echo "== allocation ledger: no forced minor collection (campaign, certify, service)"
# OCaml 5 forces a minor collection to make an array of more than 256
# words from a young element; the compile and the certifier build every
# such array from an immediate or long-lived element and fill it
for set in campaign certify service; do
  dune exec --no-build devtools/compile_alloc.exe -- --no-forced "$set" 2 \
    >"$OBS/ledger-$set.txt" || {
    echo "FAIL: a $set compile pass forced a minor collection"
    cat "$OBS/ledger-$set.txt"
    exit 1
  }
  echo "   $set ledger: ok"
done
# The checkers keep their state per domain: once the first pass has
# grown it, Validate.all allocates nothing straight in the major heap
# (column 9, "val maj", of pass 2).
val_major=$(awk '$1 == "2" { print $9 }' "$OBS/ledger-certify.txt")
if [ "$val_major" != "0" ]; then
  echo "FAIL: Validate.all allocated ${val_major:-?} words straight in the major heap on a certify pass"
  cat "$OBS/ledger-certify.txt"
  exit 1
fi
echo "   certify Validate.all: no major-heap words"

echo "== span split: one pass of the service requests"
dune exec --no-build devtools/span_split.exe -- service-requests 1 \
  >"$OBS/span-split.txt"
for span in cache.fingerprint request.encode compile.parse; do
  grep -q "^  $span " "$OBS/span-split.txt" || {
    echo "FAIL: span_split names no $span span"
    cat "$OBS/span-split.txt"
    exit 1
  }
done
echo "   service-requests split: ok"

echo "== perfbench smoke: every workload checks its outputs clean"
for w in livermore campaign certify service; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 \
    2>"$OBS/perfbench-$w.err" | tail -1 >"$OBS/perfbench-$w.json"
  $JSONV "$OBS/perfbench-$w.json" correct=true failed=0 >/dev/null || {
    echo "FAIL: perfbench $w did not finish correct with 0 failed"
    cat "$OBS/perfbench-$w.json"
    tail -5 "$OBS/perfbench-$w.err"
    exit 1
  }
  echo "   $w: ok"
done

echo "CI OK"
