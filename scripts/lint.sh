#!/usr/bin/env bash
# Repository lint gates: grep/awk checks over the sources and docs that
# need no build and no formatter. Run by scripts/check.sh and by CI.
set -euo pipefail

cd "$(dirname "$0")/.."

# Ingestion-API gate: benches and examples must pull through an
# `ItemSource` (`engine.Run(source)` / `alg.Drain(source)`). A direct
# `Consume(<stream>)` call is the legacy materialized path — it caps
# stream length at RAM and must not creep back into the drivers. (Tests
# may use Consume freely; it is the VectorSource shim they exercise.)
if grep -rnE '(\.|->)Consume\(' bench examples; then
  echo "lint.sh: direct Consume() in bench/ or examples/ — ingest via an ItemSource (Run/Drain) instead" >&2
  exit 1
fi

# Write-accounting gate: benches and examples must route write pricing
# through the WriteSink pipeline (`set_write_sink` with a WriteLog /
# LiveNvmSink / TeeSink). `set_write_log` was the log-only seam; it no
# longer exists and must not creep back as a bypass.
if grep -rnE 'set_write_log\(' bench examples; then
  echo "lint.sh: set_write_log() in bench/ or examples/ — attach sinks via set_write_sink() (WriteSink pipeline) instead" >&2
  exit 1
fi

# One-engine gate: `ShardedEngine` is the only engine; the single-stream
# driver is its S=1 configuration. The deleted `StreamEngine` (and its
# header) must not creep back as a second engine over the same drain core.
if grep -rnE '\bStreamEngine\b|api/stream_engine\.h' src bench examples tests; then
  echo "lint.sh: StreamEngine in src/, bench/, examples/ or tests/ — run single-stream work on a shards=1 ShardedEngine instead" >&2
  exit 1
fi

# Deleted-surface gate: epoch ownership follows the accountant (a
# structure that owns its accountant opens one epoch per item; one handed
# a shared accountant leaves the epochs to its owner), and options,
# triggers and adapters that no workload, bench or example drove are gone.
# A shard serves one roster per batch boundary, so per-sketch serving
# slots and a separate progress counter are gone too, as is the second
# producer/consumer ring beside the engine's batch queues. None of them
# may come back as a second way to do the same thing.
if grep -rnE '\bmanage_epochs\b|\buse_full_sample_and_hold\b|\b(ConcatSource|InterleaveSource)\b|\bkDirtyWords\b|\bDirtyWords\(|\bpartition_seed\b|\bSketchServingSlots\b|\bshard_progress_|\bserving_slot\b|\bPrefetchSource\b' src bench examples tests; then
  echo "lint.sh: deleted surface (manage_epochs, use_full_sample_and_hold, ConcatSource/InterleaveSource, kDirtyWords/DirtyWords(), partition_seed, SketchServingSlots, shard_progress_, serving_slot, PrefetchSource) in src/, bench/, examples/ or tests/ — derive it, or keep it deleted" >&2
  exit 1
fi

# Batch-drain gate: the drain loops feed sketches through `UpdateBatch`
# (the vectorized hot path). `ReplicaPipeline::Drain` is the only engine
# drain loop; item_source.cc holds the single-sketch `Drain`. A per-item
# `->Update(` call in either file is the scalar path creeping back into
# the hot loop (sketches without a kernel already get the per-item loop
# from the `UpdateBatch` default).
batch_gate_failed=0
for drain_file in src/api/replica_pipeline.cc src/api/item_source.cc; do
  if ! grep -q 'UpdateBatch(' "$drain_file"; then
    echo "lint.sh: $drain_file no longer drains through UpdateBatch() — the batch hot path is gone" >&2
    batch_gate_failed=1
  fi
  if grep -n -- '->Update(' "$drain_file" >&2; then
    echo "lint.sh: per-item Update() in engine drain file $drain_file — drain through UpdateBatch() instead" >&2
    batch_gate_failed=1
  fi
done
if [ "$batch_gate_failed" -ne 0 ]; then
  exit 1
fi

# Sink-span gate: `StateAccountant::ApplyBatch` hands each flushed batch
# to the sink as one `OnWriteSpan` call, so sinks resolve their dispatch
# (tee fan-out, wear-leveling scheme) once per batch instead of once per
# word. A per-record `OnWrite` replay loop in ApplyBatch is the per-word
# virtual chain creeping back into the batch hot path.
apply_batch=$(awk '
  /void ApplyBatch\(/ { inside = 1 }
  inside { print }
  inside && /^  }$/ { exit }
' src/state/state_accountant.h)
if [ -z "$apply_batch" ]; then
  echo "lint.sh: StateAccountant::ApplyBatch not found in src/state/state_accountant.h" >&2
  exit 1
fi
if ! printf '%s\n' "$apply_batch" | grep -q 'OnWriteSpan('; then
  echo "lint.sh: StateAccountant::ApplyBatch no longer calls OnWriteSpan() — deliver each batch to the sink as one span" >&2
  exit 1
fi
if printf '%s\n' "$apply_batch" | grep -n 'OnWrite(' >&2; then
  echo "lint.sh: per-record OnWrite() in StateAccountant::ApplyBatch — replay the batch through one OnWriteSpan() instead" >&2
  exit 1
fi

# Grid-span gate: CountMin (non-conservative) and CountSketch settle each
# chunk with `BatchUpdateScratch::AllChangedRows`, which lays out a sink's
# program-order span straight from the index rows, so their table sweep
# stays row-major with or without a sink. The aggregate-only
# `AllChanged(` settle, or a `BeginItem(` in CountSketch or in CountMin
# outside its conservative branch, is the per-word arrival-order loop
# creeping back.
if grep -rnE '\bAllChanged\(' src >&2; then
  echo "lint.sh: AllChanged() in src/ — settle grid kernels with AllChangedRows() so the sink span is filled from the index rows" >&2
  exit 1
fi
if grep -n 'BeginItem(' src/baselines/count_sketch.cc >&2; then
  echo "lint.sh: BeginItem() in src/baselines/count_sketch.cc — settle with AllChangedRows() and sweep row-major instead" >&2
  exit 1
fi
count_min_items=$(awk '
  /^[[:space:]]*if \(conservative_\) \{$/ {
    inside = 1
    indent = $0
    sub(/if.*/, "", indent)
    next
  }
  inside && index($0, indent "}") == 1 { inside = 0 }
  /BeginItem\(/ && !inside { print FILENAME ":" FNR ": " $0 }
' src/baselines/count_min.cc)
if [ -n "$count_min_items" ]; then
  echo "lint.sh: BeginItem() outside CountMin's conservative branch — settle the plain kernel with AllChangedRows() instead:" >&2
  echo "$count_min_items" >&2
  exit 1
fi

# SIMD-store gate: `#pragma omp simd` tells the compiler the loop's
# iterations are independent, so it may gather, add and scatter whole
# vectors of them at once. A loop that stores through a loaded index
# (`row[idx[i]] += 1`) repeats indices inside one vector, and the scatter
# keeps one of the colliding updates: AVX-512 builds of the grid kernels
# lost counts this way. Under the pragma every subscripted store must be
# indexed by the loop variable itself (the pure hash loops' `out[i] =`).
simd_stores=$(awk '
  # Subscripted stores in `body` whose subscript is not `var`, one per line.
  function bad_stores(body, var,    n, i, j, depth, sub_, rest, before, out) {
    n = length(body)
    out = ""
    for (i = 1; i <= n; ++i) {
      if (substr(body, i, 1) != "[") continue
      depth = 1
      for (j = i + 1; j <= n && depth > 0; ++j) {
        if (substr(body, j, 1) == "[") ++depth
        if (substr(body, j, 1) == "]") --depth
      }
      sub_ = substr(body, i + 1, j - i - 2)
      rest = substr(body, j)
      before = substr(body, 1, i - 1)
      gsub(/^[[:space:]]+|[[:space:]]+$/, "", sub_)
      if (rest !~ /^[[:space:]]*(([-+*\/%&|^]|<<|>>)?=[^=]|\+\+|--)/ &&
          before !~ /(\+\+|--)[[:space:]]*[A-Za-z_][A-Za-z0-9_]*$/) continue
      if (sub_ != var) out = out "[" sub_ "] "
      i = j - 1
    }
    return out
  }
  FNR == 1 { pending = 0 }
  /^[[:space:]]*#pragma omp simd/ {
    pending = 1; body = ""; depth = 0; opened = 0; at = FILENAME ":" FNR
    next
  }
  pending {
    line = $0
    sub(/\/\/.*/, "", line)
    body = body " " line
    opens = gsub(/\{/, "{", line)
    closes = gsub(/\}/, "}", line)
    depth += opens - closes
    if (opens > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) {
      pending = 0
      var = body
      sub(/^[^(]*\(/, "", var)
      sub(/=.*/, "", var)
      gsub(/[[:space:]]+$/, "", var)
      sub(/.*[^A-Za-z0-9_]/, "", var)
      bad = bad_stores(body, var)
      if (bad != "") print at ": stores through " bad "in:" body
    }
  }
' $(find src -name '*.h' -o -name '*.cc' | sort))
if [ -n "$simd_stores" ]; then
  echo "lint.sh: #pragma omp simd above a loop that stores through a non-induction index — a vector scatter drops colliding updates; drop the pragma:" >&2
  echo "$simd_stores" >&2
  exit 1
fi

# Scatter gate: the same fault as the compiler sees it. Compiled to
# assembly for an AVX-512 target (which needs no AVX-512 CPU), the grid
# kernels and every file carrying `#pragma omp simd` must emit no
# `vpscatter`: in these loops a scatter is a histogram store that loses
# colliding updates.
cxx="${CXX:-g++}"
for simd_file in $( (echo src/baselines/count_min.cc; echo src/baselines/count_sketch.cc;
                     grep -rl '#pragma omp simd' src --include='*.cc') | sort -u); do
  if ! simd_asm=$("$cxx" -std=c++17 -O3 -fopenmp-simd -march=skylake-avx512 \
                   -Isrc -S -o - "$simd_file"); then
    echo "lint.sh: could not compile $simd_file to assembly with -march=skylake-avx512" >&2
    exit 1
  fi
  if printf '%s\n' "$simd_asm" | grep -m 3 'vpscatter' >&2; then
    echo "lint.sh: $simd_file emits vpscatter under -march=skylake-avx512 — a vectorized histogram store drops colliding updates" >&2
    exit 1
  fi
done

# Morris-kernel gate: stable_morris's batch kernel makes one `Add` per
# (item, row), and its coin flip must cost no call. Compiled at the
# library's default flags (RelWithDebInfo's -O2), `StableSketch::
# UpdateBatch` (with its .cold part) must not call or tail-jump to
# `MorrisCounter::Add`, `MorrisCounter::RoundedLevel`, `Rng::Bernoulli`,
# `Rng::Next` or `Rng::UniformDouble` — only the level-moving slow paths
# stay calls.
if ! stable_asm=$("$cxx" -std=c++17 -O2 -DNDEBUG -fopenmp-simd -Isrc -S -o - \
                   src/baselines/stable_sketch.cc); then
  echo "lint.sh: could not compile src/baselines/stable_sketch.cc to assembly" >&2
  exit 1
fi
update_batch_calls=$(printf '%s\n' "$stable_asm" | awk '
  /^_ZN8fewstate12StableSketch11UpdateBatchEPKmm(\.cold)?:/ { inside = 1 }
  inside && /^[[:space:]]+(call|jmp)[[:space:]]/ { print }
  inside && /^[[:space:]]+\.size[[:space:]]+_ZN8fewstate12StableSketch11UpdateBatchEPKmm/ { inside = 0 }
')
if [ -z "$update_batch_calls" ]; then
  echo "lint.sh: StableSketch::UpdateBatch not found in the assembly of src/baselines/stable_sketch.cc" >&2
  exit 1
fi
if printf '%s\n' "$update_batch_calls" |
   grep -E '_ZN8fewstate13MorrisCounter(3Add|12RoundedLevel)E|_ZN8fewstate3Rng(9Bernoulli|4Next|13UniformDouble)E' >&2; then
  echo "lint.sh: StableSketch::UpdateBatch calls the Morris add or the RNG out of line — keep MorrisCounter::Add(w, scratch), RoundedLevel and the Rng draws inline" >&2
  exit 1
fi

# Transform gate: the Chambers–Mallows–Stuck formula lives only in
# `PStableFromUniform` (src/common/random.cc), whose exact integral
# exponents are pinned bitwise by random_test. A pow/sin/cos/log call in
# stable_sketch.cc is a second copy of it that the scalar path, the
# batch pre-stage and SamplePStable would no longer share.
if grep -nE '(^|[^A-Za-z0-9_])(std::)?(pow|sin|cos|log)[[:space:]]*\(' \
     src/baselines/stable_sketch.cc >&2; then
  echo "lint.sh: pow/sin/cos/log call in src/baselines/stable_sketch.cc — project entries through PStableFromUniform" >&2
  exit 1
fi

# Query-path gate: `TopK` costs O(S·k) because each shard hands over only
# its top candidates (`AppendTopCandidates`, SpaceSaving's top-bucket
# walk) and candidates are deduped by sort+unique in a vector. A hash set
# in view_query.cc, or a full `AppendCandidates(` gather inside `TopK`,
# is the whole summary's cost creeping back onto every query.
if grep -n 'unordered_set' src/shard/view_query.cc >&2; then
  echo "lint.sh: unordered_set in src/shard/view_query.cc — dedup query candidates by sort+unique in a vector" >&2
  exit 1
fi
topk_body=$(awk '
  /^std::vector<HeavyHitter> TopK\(/ { inside = 1 }
  inside { print }
  inside && /^}$/ { exit }
' src/shard/view_query.cc)
if [ -z "$topk_body" ]; then
  echo "lint.sh: TopK not found in src/shard/view_query.cc" >&2
  exit 1
fi
if printf '%s\n' "$topk_body" | grep -n 'AppendCandidates(' >&2; then
  echo "lint.sh: TopK gathers every tracked item via AppendCandidates() — take each shard's AppendTopCandidates(k) instead" >&2
  exit 1
fi

# Sample-and-hold gate: SampleAndHold keeps its working memory in one
# open-addressing table (item -> held-counter slot, reservoir multiplicity,
# estimate) plus a slot array, and FullSampleAndHold dedups tracked items
# by sort+unique in a vector, so a query is a few flat-table probes per
# instance. A node-based hash container in these files is the per-lookup
# pointer chase creeping back. A Morris estimate is a cached load: a
# `ValueAt(` or `expm1` in `MorrisCounter::Estimate` puts a transcendental
# call back on every estimate.
if grep -nE 'unordered_(map|set)' src/core/sample_and_hold.h \
     src/core/sample_and_hold.cc src/core/full_sample_and_hold.cc >&2; then
  echo "lint.sh: unordered_map/unordered_set in SampleAndHold or FullSampleAndHold — use the flat table and sort+unique in a vector" >&2
  exit 1
fi
morris_estimate=$(awk '
  /double (MorrisCounter::)?Estimate\(\) const/ { inside = 1 }
  inside { print FILENAME ":" FNR ": " $0 }
  inside && /}/ { inside = 0 }
' src/counters/morris_counter.h src/counters/morris_counter.cc)
if [ -z "$morris_estimate" ]; then
  echo "lint.sh: MorrisCounter::Estimate not found in src/counters/morris_counter.{h,cc}" >&2
  exit 1
fi
if printf '%s\n' "$morris_estimate" | grep -E 'ValueAt\(|expm1' >&2; then
  echo "lint.sh: MorrisCounter::Estimate recomputes value(level) — return the value cached when the level moved" >&2
  exit 1
fi

# Cache-lookup gate: `CacheSpec::Validate` requires power-of-two `sets`
# and `line_words`, so `CacheTier` takes a word's offset, tag and set from
# precomputed shifts and masks. A division or modulo by `line_words` or
# `sets` in src/nvm/cache_tier.{h,cc} (comments aside) is the per-word
# 64-bit division creeping back into the cached write path.
cache_division=$(awk '
  {
    line = $0
    sub(/\/\/.*/, "", line)
    if (line ~ /[\/%]=?[[:space:]]*\(?[[:space:]]*([A-Za-z_][A-Za-z0-9_]*(\.|->))*(line_words|sets)_?([^A-Za-z0-9_]|$)/) {
      print FILENAME ":" FNR ": " $0
    }
  }
' src/nvm/cache_tier.h src/nvm/cache_tier.cc)
if [ -n "$cache_division" ]; then
  echo "lint.sh: division or modulo by line_words/sets in the cache tier — index by the precomputed shifts and masks instead:" >&2
  echo "$cache_division" >&2
  exit 1
fi

# Shared-state gate: `ReplicaPipeline::Drain` runs a shard's replicas on
# parallel lanes, which is only sound while replicas share no mutable
# state. Below the `Sketch` API (src/{baselines,core,counters,state,nvm,
# common}) a non-const `static` variable, at function or class scope, or
# a non-const variable at namespace scope (column 0), would be that
# shared state. Functions and const/constexpr data are fine. The one
# allowlisted cache, `StableSketch::MedianAbsPStable`'s p -> scale map,
# is guarded by its own mutex.
shared_state=$(awk '
  # Enclosing function: the last column-0 line opening a definition.
  /^[A-Za-z].*\(/ && $0 !~ /;[[:space:]]*$/ { fn = $0 }
  {
    line = $0
    sub(/\/\/.*/, "", line)
    decl = ""
    if (line ~ /^[[:space:]]*static[[:space:]]/) {
      decl = line
      sub(/^[[:space:]]*static[[:space:]]+/, "", decl)
    } else if (line ~ /^[A-Za-z_]/ && (line ~ /;[[:space:]]*$/ || line ~ /=/) &&
               line !~ /^(namespace|class|struct|union|enum|using|typedef|template|extern "C")[[:space:]]/) {
      decl = line
    }
    if (decl == "") next
    if (decl ~ /^(inline[[:space:]]+)?(const|constexpr)[[:space:]]/) next
    head = decl
    sub(/[=;{].*/, "", head)
    if (head ~ /\(/) next  # a function declaration or definition
    if (head ~ /[[:space:]]const[[:space:]]/) next  # e.g. `T const kX`
    if (fn ~ /StableSketch::MedianAbsPStable\(/) next
    print FILENAME ":" FNR ": " $0
  }
' $(find src/baselines src/core src/counters src/state src/nvm src/common \
      -name '*.h' -o -name '*.cc' | sort))
if [ -n "$shared_state" ]; then
  echo "lint.sh: mutable static or namespace-scope state below the Sketch API — replicas drained on parallel lanes must share no mutable state:" >&2
  echo "$shared_state" >&2
  exit 1
fi

# Source-error gate: a `FileSource` or `SocketSource` constructed in
# examples/ must have its error channel consulted in the same file
# (`.ok()` or `.status()`). An unopenable trace — or a lossy, truncated,
# or cut network stream — must be a reported failure, never an empty or
# short workload that silently "succeeds".
source_gate_failed=0
while IFS=: read -r file line decl; do
  var=$(printf '%s' "$decl" | sed -nE 's/.*(File|Socket)Source[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*[({].*/\2/p')
  [ -n "$var" ] || continue
  if ! grep -qE "\b${var}\.(ok|status)\(" "$file"; then
    echo "lint.sh: $file:$line constructs a source '$var' without checking ${var}.ok()/${var}.status() — a bad trace path or lossy stream must fail loudly" >&2
    source_gate_failed=1
  fi
done < <(grep -rnE '\b(File|Socket)Source[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({]' examples || true)
if [ "$source_gate_failed" -ne 0 ]; then
  exit 1
fi

# Cache-baseline gate: any bench or example that builds a *cached* NvmSpec
# (assigning `.cache.sets` / `.cache =`) must also run and print the
# uncached control in the same file — a cache-tier wear number without its
# uncached baseline next to it is unreviewable. Grep-level: the file must
# mention "uncached" somewhere (a label, a control row, a comment naming
# the control run).
cache_gate_failed=0
while IFS=: read -r file line _; do
  if ! grep -qi 'uncached' "$file"; then
    echo "lint.sh: $file:$line configures a cached NvmSpec but the file never runs/prints an uncached control — emit the baseline alongside" >&2
    cache_gate_failed=1
  fi
done < <(grep -rnE '\.cache(\.sets[[:space:]]*=|[[:space:]]*=)' bench examples || true)
if [ "$cache_gate_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 1: every src/ subsystem directory must appear in the README
# and docs/ARCHITECTURE.md subsystem tables — a new subsystem lands with
# its documentation or not at all.
for dir in src/*/; do
  subsystem="${dir%/}"
  for doc in README.md docs/ARCHITECTURE.md; do
    if ! grep -q "$subsystem" "$doc"; then
      echo "lint.sh: $subsystem missing from $doc — add it to the subsystem table" >&2
      exit 1
    fi
  done
done

# Docs gate 2: Doxygen-contract lint (no doxygen binary needed). Every
# exported class/struct in the public API headers must carry a `///`
# contract comment immediately above it (a template<> line may sit in
# between). Forward declarations (ending in ';') are exempt.
doc_lint_failed=0
for header in src/api/*.h src/state/*.h src/nvm/*.h src/shard/*.h src/recover/*.h src/obs/*.h src/net/*.h; do
  bad=$(awk '
    /^(class|struct) [A-Z]/ && $0 !~ /;[[:space:]]*$/ {
      if (p1 !~ /^\/\/\// && !(p1 ~ /^template/ && p2 ~ /^\/\/\//)) {
        print FILENAME ":" FNR ": " $0
      }
    }
    { p2 = p1; p1 = $0 }
  ' "$header")
  if [ -n "$bad" ]; then
    echo "lint.sh: exported type without a /// contract comment:" >&2
    echo "$bad" >&2
    doc_lint_failed=1
  fi
done
if [ "$doc_lint_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 3: every metric name string used in src/ must have a row in
# the docs/OBSERVABILITY.md catalogue — an undocumented metric is a
# dashboard nobody can read. (Names are literal "fewstate_*" strings;
# dynamic name construction is deliberately not used in src/.)
metric_gate_failed=0
for metric in $(grep -rhoE '"fewstate_[a-z0-9_]+"' src | tr -d '"' | sort -u); do
  if ! grep -q "\`${metric}\`" docs/OBSERVABILITY.md; then
    echo "lint.sh: metric ${metric} used in src/ but missing from the docs/OBSERVABILITY.md catalogue" >&2
    metric_gate_failed=1
  fi
done
if [ "$metric_gate_failed" -ne 0 ]; then
  exit 1
fi
