#!/bin/sh
# Tier-1 verification in one command: build, unit/property tests, then a
# CLI smoke pass — every example must compile, validate, and match the
# sequential interpreter, and every expected failure must surface as a
# structured error (never an uncaught exception).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

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

W2C="dune exec --no-build bin/w2c.exe --"

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
  *"Raised at"* | *"Fatal error"* | *backtrace*)
    echo "FAIL: $label: uncaught exception leaked:"
    echo "$out"
    exit 1
    ;;
  esac
  echo "   $label: ok"
}

echo "== expect-fail smoke"
expect_fail "missing file" \
  dune exec --no-build bin/w2c.exe -- run devtools/smoke/no_such_file.w2
expect_fail "parse error" \
  dune exec --no-build bin/w2c.exe -- run devtools/smoke/parse_error.w2
expect_fail "cycle limit" \
  dune exec --no-build bin/w2c.exe -- run --max-cycles 5 examples/saxpy.w2
expect_fail "unknown fault site" \
  dune exec --no-build bin/w2c.exe -- run --inject bogus.site@1 examples/saxpy.w2

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
  dune exec --no-build bin/w2c.exe -- run --opt exact --opt-portfolio 0 \
  examples/saxpy.w2

echo "== observability smoke: --trace/--metrics/--profile artifacts validate"
JSONV="dune exec --no-build devtools/jsonv.exe --"
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
  compile.emit compile.validate; do
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

echo "== bench smoke: budget-capped optimality gap table"
dune exec --no-build bench/main.exe -- --table optimal-quick >/dev/null

echo "== bench smoke: JSON artifacts are schema-stable across runs"
dune exec --no-build bench/main.exe -- --table optimal-quick \
  --emit-json "$OBS/a.json" >/dev/null
dune exec --no-build bench/main.exe -- --table optimal-quick \
  --emit-json "$OBS/b.json" >/dev/null
$JSONV "$OBS/a.json" schema_version generator artifacts >/dev/null
cmp -s "$OBS/a.json" "$OBS/b.json" || {
  echo "FAIL: bench --emit-json output differs between identical runs"
  exit 1
}
echo "   emit-json stability: ok"

echo "== co-simulator smoke: Table 4-1 byte-stable, every row valid"
# the 10-cell Array_sim row is the only caller of the co-simulator
# outside the tests
dune exec --no-build bench/main.exe -- --table 4-1 \
  --emit-json "$OBS/t41a.json" >/dev/null
dune exec --no-build bench/main.exe -- --table 4-1 \
  --emit-json "$OBS/t41b.json" >/dev/null
$JSONV "$OBS/t41a.json" schema_version \
  artifacts/table_4_1/rows/0/0 \
  "artifacts/table_4_1/rows/7/0=matmul (true 10-cell co-sim)" \
  artifacts/table_4_1/rows/7/6=ok >/dev/null
cmp -s "$OBS/t41a.json" "$OBS/t41b.json" || {
  echo "FAIL: bench --table 4-1 output differs between identical runs"
  exit 1
}
if grep -qE "FAILED|INVALID" "$OBS/t41a.json"; then
  echo "FAIL: a Table 4-1 row failed or did not validate"
  grep -E "FAILED|INVALID" "$OBS/t41a.json"
  exit 1
fi
echo "   table 4-1 co-simulation: ok"

echo "== bench smoke: learning certifier agrees and is jobs-invariant"
dune exec --no-build bench/main.exe -- --table optimal-learning-quick \
  --emit-json "$OBS/ol1.json" >/dev/null || {
  echo "FAIL: optimal-learning-quick found a solver disagreement"
  dune exec --no-build bench/main.exe -- --table optimal-learning-quick || true
  exit 1
}
dune exec --no-build bench/main.exe -- --table optimal-learning-quick \
  --jobs 2 --emit-json "$OBS/ol2.json" >/dev/null
dune exec --no-build bench/main.exe -- --table optimal-learning-quick \
  --jobs 8 --emit-json "$OBS/ol8.json" >/dev/null
$JSONV "$OBS/ol1.json" \
  artifacts/optimal-learning-quick/schema=bench-optimal-learning-quick/1 \
  artifacts/optimal-learning-quick/loops \
  artifacts/optimal-learning-quick/proven_on \
  artifacts/optimal-learning-quick/disagreements=0 >/dev/null
if ! cmp -s "$OBS/ol1.json" "$OBS/ol2.json" ||
  ! cmp -s "$OBS/ol1.json" "$OBS/ol8.json"; then
  echo "FAIL: optimal-learning artifact differs across --jobs"
  exit 1
fi
echo "   learning + portfolio jobs-invariance: ok"

echo "== bench smoke: tracing disabled stays zero-cost"
dune exec --no-build bench/main.exe -- --table trace-overhead >/dev/null

echo "== parallel smoke: -j 8 output byte-identical to -j 1"
# siblings.w2 holds two independent innermost loops, so its -j 8 compile
# runs one of them on a second domain; filterbank.w2 holds four, in a
# listing of over 256 words; the other two are one-loop programs
for f in examples/saxpy.w2 examples/conv1d.w2 examples/siblings.w2 \
  examples/filterbank.w2; do
  $W2C compile "$f" -j 1 >"$OBS/j1.txt"
  $W2C compile "$f" -j 8 >"$OBS/j8.txt"
  cmp -s "$OBS/j1.txt" "$OBS/j8.txt" || {
    echo "FAIL: $f: compiled output differs between -j 1 and -j 8"
    exit 1
  }
  $W2C schedule "$f" -j 1 --explain-json "$OBS/ej1.json" >/dev/null
  $W2C schedule "$f" -j 8 --explain-json "$OBS/ej8.json" >/dev/null
  cmp -s "$OBS/ej1.json" "$OBS/ej8.json" || {
    echo "FAIL: $f: explain log differs between -j 1 and -j 8"
    exit 1
  }
  # work-cost profiles count deterministic units, so they obey the
  # same identity: a shard merge at any width reproduces -j 1 exactly
  $W2C schedule "$f" -j 1 --cost-json "$OBS/cj1.json" >/dev/null
  $W2C schedule "$f" -j 8 --cost-json "$OBS/cj8.json" >/dev/null
  cmp -s "$OBS/cj1.json" "$OBS/cj8.json" || {
    echo "FAIL: $f: cost profile differs between -j 1 and -j 8"
    exit 1
  }
done
echo "   -j determinism: ok"

echo "== bench smoke: compile-throughput corpus (quick, parallel driver)"
# the table itself exits nonzero if any job count changes the output
dune exec --no-build bench/main.exe -- --table compile-speed-quick \
  --emit-json "$OBS/cs1.json" >/dev/null
dune exec --no-build bench/main.exe -- --table compile-speed-quick \
  --emit-json "$OBS/cs2.json" >/dev/null
$JSONV "$OBS/cs1.json" schema_version \
  artifacts/compile_speed/corpus \
  artifacts/compile_speed/identical_across_j \
  artifacts/compile_speed/code_size \
  artifacts/compile_speed/loops/0/status >/dev/null
cmp -s "$OBS/cs1.json" "$OBS/cs2.json" || {
  echo "FAIL: compile-speed artifact differs between identical runs"
  exit 1
}
echo "   compile-speed artifact: ok"

echo "== committed pipeline profile still parses"
$JSONV BENCH_pipeline.json schema_version \
  artifacts/pipeline/kernels/0/loops/0/achieved_ii >/dev/null

echo "== regression sentinel: fresh pipeline run vs committed profile"
BENCH="dune exec --no-build bench/main.exe --"
$BENCH --table pipeline --emit-json "$OBS/pipe.json" >/dev/null
$BENCH --compare BENCH_pipeline.json "$OBS/pipe.json" >/dev/null || {
  echo "FAIL: pipeline profile regressed against BENCH_pipeline.json"
  $BENCH --compare BENCH_pipeline.json "$OBS/pipe.json" || true
  exit 1
}
echo "   gate vs committed profile: ok"

echo "== regression sentinel: injected fault must trip the gate"
$BENCH --table pipeline --inject modsched.place@1 \
  --emit-json "$OBS/pipe-bad.json" >/dev/null
if $BENCH --compare BENCH_pipeline.json "$OBS/pipe-bad.json" >/dev/null; then
  echo "FAIL: sentinel did not fire on an injected regression"
  exit 1
fi
echo "   sentinel firing path: ok"

echo "== cost accounting: --table cost byte-identical across job counts"
$BENCH --table cost --emit-json "$OBS/cost1.json" >/dev/null
$BENCH --table cost --jobs 8 --emit-json "$OBS/cost8.json" >/dev/null
$JSONV "$OBS/cost1.json" \
  artifacts/cost/schema=bench-cost/1 \
  artifacts/cost/kernels/0/cost/schema=cost/1 \
  artifacts/cost/kernels/0/cost/total \
  artifacts/cost/totals/mrt.probes >/dev/null
cmp -s "$OBS/cost1.json" "$OBS/cost8.json" || {
  echo "FAIL: --table cost artifact differs between --jobs 1 and --jobs 8"
  exit 1
}
# the artifact is pure work-unit counts: any wall-clock or GC field
# leaking in would break cross-machine byte-stability
if grep -qE '"(wall_ns|minor_words|seconds|elapsed|time_us)"' "$OBS/cost1.json"; then
  echo "FAIL: cost artifact carries wall-clock or GC fields"
  exit 1
fi
echo "   cost artifact: ok"

echo "== regression attribution: doctored profile must name its cause"
# raise loop 0's achieved II and resource bound in the first kernel:
# the sentinel must flag the regression and --attribute must point at
# the changed binding constraint
awk '!r && /"res_mii": [0-9]+/ { sub(/"res_mii": [0-9]+/, "\"res_mii\": 99"); r=1 }
     !a && /"achieved_ii": [0-9]+/ { sub(/"achieved_ii": [0-9]+/, "\"achieved_ii\": 99"); a=1 }
     { print }' "$OBS/pipe.json" >"$OBS/pipe-attr.json"
if $BENCH --compare "$OBS/pipe.json" "$OBS/pipe-attr.json" --attribute \
  >"$OBS/attr.out"; then
  echo "FAIL: attribution compare did not fire on a doctored profile"
  exit 1
fi
grep -qE "res_mii rose [0-9]+ -> 99 \(binding" "$OBS/attr.out" || {
  echo "FAIL: attribution did not name the changed binding constraint"
  cat "$OBS/attr.out"
  exit 1
}
# a clean pair must attribute nothing
$BENCH --compare "$OBS/pipe.json" "$OBS/pipe.json" --attribute \
  >"$OBS/attr-clean.out" || {
  echo "FAIL: attribution compare rejected two identical artifacts"
  exit 1
}
if grep -q "attribution:" "$OBS/attr-clean.out"; then
  echo "FAIL: clean pair produced attribution lines"
  exit 1
fi
# artifacts from different schema generations are rejected outright
sed 's|"schema": "bench-pipeline/1"|"schema": "bench-pipeline/9"|' \
  "$OBS/pipe.json" >"$OBS/pipe-schema.json"
if $BENCH --compare "$OBS/pipe.json" "$OBS/pipe-schema.json" >/dev/null 2>&1; then
  echo "FAIL: pipeline schema mismatch was not rejected"
  exit 1
fi
echo "   attribution + schema gates: ok"

echo "== campaign smoke: clean quick sweep, byte-stable artifact"
$BENCH --table campaign-quick --emit-json "$OBS/camp1.json" >/dev/null || {
  echo "FAIL: campaign-quick reported failing seeds on a clean tree"
  $BENCH --table campaign-quick || true
  exit 1
}
$BENCH --table campaign-quick --emit-json "$OBS/camp2.json" >/dev/null
$JSONV "$OBS/camp1.json" schema_version \
  artifacts/campaign-quick/total \
  artifacts/campaign-quick/pass \
  artifacts/campaign-quick/verdicts/pass \
  artifacts/campaign-quick/gap/count \
  artifacts/campaign-quick/eff/count \
  artifacts/campaign-quick/code_size/count \
  artifacts/campaign-quick/pass_rate/schema=series/1 \
  artifacts/campaign-quick/pass_rate/windows/0/count \
  artifacts/campaign-quick/unminimized >/dev/null
cmp -s "$OBS/camp1.json" "$OBS/camp2.json" || {
  echo "FAIL: campaign artifact differs between identical runs"
  exit 1
}
echo "   clean campaign + byte-stable artifact: ok"

echo "== campaign sentinel: per-window pass-rate gate must fire"
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
if $BENCH --compare "$OBS/camp1.json" "$OBS/camp-window-bad.json" >/dev/null; then
  echo "FAIL: per-window pass-rate gate did not fire"
  exit 1
fi
echo "   pass-rate window gate: ok"

echo "== campaign sentinel: injected fault must be caught, minimized, banked"
mkdir -p "$OBS/bank"
if $BENCH --table campaign --seeds 1..30 --inject modsched.place@1 \
  --bank "$OBS/bank" --emit-json "$OBS/camp-bad.json" >/dev/null 2>&1; then
  echo "FAIL: campaign did not fire on an injected scheduler fault"
  exit 1
fi
banked=$(ls "$OBS/bank"/degraded_s*.w2 2>/dev/null | head -1)
test -n "$banked" || {
  echo "FAIL: campaign banked no minimized degraded_s*.w2 regression"
  ls -l "$OBS/bank" || true
  exit 1
}
grep -q -- "-- camp: inject=modsched.place@1" "$banked" || {
  echo "FAIL: banked regression does not record its trigger header"
  cat "$banked"
  exit 1
}
# the banked reproducer is a valid program: trigger-less it must pass
$W2C run --validate --verify "$banked" >/dev/null || {
  echo "FAIL: banked regression $banked does not run clean without the fault"
  exit 1
}
echo "   inject -> minimize -> bank -> replay: ok"

echo "== campaign sentinel: corrupted nogood bank must be caught"
mkdir -p "$OBS/optbank"
if $BENCH --table campaign --seeds 1..8 --inject exact.nogood@1 \
  --bank "$OBS/optbank" >/dev/null 2>&1; then
  echo "FAIL: campaign did not fire on a corrupted nogood bank"
  exit 1
fi
obanked=$(ls "$OBS/optbank"/opt-diverge_s*.w2 2>/dev/null | head -1)
test -n "$obanked" || {
  echo "FAIL: campaign banked no minimized opt-diverge_s*.w2 regression"
  ls -l "$OBS/optbank" || true
  exit 1
}
grep -q -- "-- camp: inject=exact.nogood@1" "$obanked" || {
  echo "FAIL: banked opt-diverge regression does not record its trigger"
  cat "$obanked"
  exit 1
}
# trigger-less the reproducer compiles and certifies clean
$W2C run --validate --verify "$obanked" >/dev/null || {
  echo "FAIL: banked regression $obanked does not run clean without the fault"
  exit 1
}
echo "   corrupted bank -> opt-diverge -> minimize -> bank: ok"

echo "== serve smoke: cached compile byte-identical, warm hits, stable artifact"
$BENCH --table serve --emit-json "$OBS/sv1.json" >/dev/null || {
  echo "FAIL: --table serve found a divergence or an idle cache"
  $BENCH --table serve || true
  exit 1
}
$BENCH --table serve --emit-json "$OBS/sv2.json" >/dev/null
$JSONV "$OBS/sv1.json" schema_version \
  artifacts/serve/programs \
  artifacts/serve/identical_cold \
  artifacts/serve/identical_warm \
  artifacts/serve/cold/hits \
  artifacts/serve/warm/hits >/dev/null
cmp -s "$OBS/sv1.json" "$OBS/sv2.json" || {
  echo "FAIL: serve artifact differs between identical runs"
  exit 1
}
$BENCH --compare "$OBS/sv1.json" "$OBS/sv2.json" >/dev/null || {
  echo "FAIL: serve gate rejected two identical artifacts"
  exit 1
}
# the identity gate must fire on a doctored artifact
sed 's/"identical_cold": true/"identical_cold": false/' "$OBS/sv1.json" \
  >"$OBS/sv-bad.json"
if $BENCH --compare "$OBS/sv1.json" "$OBS/sv-bad.json" >/dev/null; then
  echo "FAIL: serve identity gate did not fire"
  exit 1
fi
echo "   serve table + identity gate: ok"

echo "== slo smoke: telemetry replay, byte-stable artifact, gated compare"
$BENCH --table slo --emit-json "$OBS/slo1.json" >/dev/null || {
  echo "FAIL: --table slo missed a service-level objective"
  $BENCH --table slo || true
  exit 1
}
$BENCH --table slo --emit-json "$OBS/slo2.json" >/dev/null
$JSONV "$OBS/slo1.json" schema_version \
  artifacts/slo/schema=bench-slo/1 \
  artifacts/slo/status_schema=w2cd-status/2 \
  artifacts/slo/identical=true \
  artifacts/slo/error_budget_ok=true \
  artifacts/slo/trace_ok=true \
  artifacts/slo/dashboard_ok=true \
  artifacts/slo/series/occupancy/windows/0/count \
  artifacts/slo/span_skeleton/0/request >/dev/null
cmp -s "$OBS/slo1.json" "$OBS/slo2.json" || {
  echo "FAIL: slo artifact differs between identical runs"
  exit 1
}
$BENCH --compare "$OBS/slo1.json" "$OBS/slo2.json" >/dev/null || {
  echo "FAIL: slo gate rejected two identical artifacts"
  exit 1
}
# the identity gate must fire on a doctored artifact ...
sed 's/"identical": true/"identical": false/' "$OBS/slo1.json" \
  >"$OBS/slo-bad.json"
if $BENCH --compare "$OBS/slo1.json" "$OBS/slo-bad.json" >/dev/null; then
  echo "FAIL: slo identity gate did not fire"
  exit 1
fi
# ... and a foreign schema generation is rejected outright, never diffed
sed 's|"schema": "bench-slo/1"|"schema": "bench-slo/9"|' "$OBS/slo1.json" \
  >"$OBS/slo-schema.json"
if $BENCH --compare "$OBS/slo1.json" "$OBS/slo-schema.json" >/dev/null 2>&1; then
  echo "FAIL: slo schema mismatch was not rejected"
  exit 1
fi
echo "   slo table + identity/schema gates: ok"

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
